//! Startpoints: the active (sending) half of a Nexus channel, plus the
//! in-process exchange used when both halves live in one OS process.

use crate::context::NexusContext;
use crate::msg::send_frame;
use nexus_proxy::nx_proxy_connect;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use wacs_sync::Mutex;
use wacs_sync::Sender;

/// Map from advertised logical address to the endpoint's queue sender.
type ExchangeMap = HashMap<(String, u16), Sender<Vec<u8>>>;

/// Registry of in-process endpoints: advertised address → queue sender.
///
/// Contexts that share an exchange short-circuit co-located traffic
/// (Nexus's intra-node protocol module); contexts with private
/// exchanges always use the socket path, which is what the
/// measurement harnesses want.
#[derive(Clone, Default)]
pub struct InProcExchange {
    map: Arc<Mutex<ExchangeMap>>,
}

impl InProcExchange {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn register(&self, addr: (String, u16), tx: Sender<Vec<u8>>) {
        self.map.lock().insert(addr, tx);
    }

    pub(crate) fn unregister(&self, addr: &(String, u16)) {
        self.map.lock().remove(addr);
    }

    pub(crate) fn lookup(&self, addr: &(String, u16)) -> Option<Sender<Vec<u8>>> {
        self.map.lock().get(addr).cloned()
    }

    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }
}

enum Inner {
    /// Framed TCP (possibly through the Nexus Proxy — the stream is
    /// whatever `NXProxyConnect` returned).
    Tcp(Mutex<TcpStream>),
    /// Same-process fast path.
    InProc(Sender<Vec<u8>>),
}

/// A one-way message channel to a remote endpoint.
pub struct Startpoint {
    inner: Inner,
    dst: (String, u16),
}

impl std::fmt::Debug for Startpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.inner {
            Inner::Tcp(_) => "tcp",
            Inner::InProc(_) => "inproc",
        };
        write!(f, "Startpoint({kind} -> {}:{})", self.dst.0, self.dst.1)
    }
}

impl Startpoint {
    pub(crate) fn attach(ctx: &NexusContext, dst: (&str, u16)) -> io::Result<Startpoint> {
        let key = (dst.0.to_string(), dst.1);
        if let Some(tx) = ctx.inproc().lookup(&key) {
            return Ok(Startpoint {
                inner: Inner::InProc(tx),
                dst: key,
            });
        }
        let stream = nx_proxy_connect(ctx.net(), ctx.proxy_env(), ctx.host(), dst)?;
        stream.set_nodelay(true).ok();
        Ok(Startpoint {
            inner: Inner::Tcp(Mutex::new(stream)),
            dst: key,
        })
    }

    /// Send one message. Messages on a startpoint are delivered in
    /// order; interleaving across startpoints is unordered.
    pub fn send(&self, payload: &[u8]) -> io::Result<()> {
        match &self.inner {
            Inner::Tcp(stream) => send_frame(&mut *stream.lock(), payload),
            Inner::InProc(tx) => tx
                .send(payload.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "endpoint dropped")),
        }
    }

    /// The advertised address this startpoint attached to.
    pub fn peer(&self) -> (&str, u16) {
        (&self.dst.0, self.dst.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firewall::vnet::VNet;

    /// Contexts sharing an exchange attach in process: the startpoint
    /// holds the endpoint's queue, not a socket.
    #[test]
    fn inproc_shortcut_when_exchange_shared() {
        let net = VNet::new();
        let site = net.add_site("etl", None);
        net.add_host("etl-sun", site);
        let exchange = InProcExchange::new();
        let a = NexusContext::direct(net.clone(), "etl-sun").with_shared_inproc(exchange.clone());
        let b = NexusContext::direct(net, "etl-sun").with_shared_inproc(exchange);
        let ep = a.endpoint().unwrap();
        let adv = (ep.advertised().0.to_string(), ep.advertised().1);
        let sp = b.attach((&adv.0, adv.1)).unwrap();
        assert!(matches!(sp.inner, Inner::InProc(_)));
        sp.send(b"local").unwrap();
        assert_eq!(ep.recv().unwrap(), b"local");
    }
}
