//! Endpoints: the passive (receiving) half of a Nexus channel.
//!
//! An endpoint owns a listener (registered with the Nexus Proxy when
//! one is configured), an acceptor thread, and a pool of parked reader
//! threads (`nexus_proxy::Workers`). The acceptor hands each attached
//! startpoint's frame loop to the pool, so a new channel's first
//! message waits for a channel send, not for a `thread::spawn`. All
//! arriving messages multiplex into a single queue, preserving
//! per-startpoint order.
//!
//! Dropping the endpoint leaves none of its threads running: it stops
//! and joins the acceptor, closes the queue (a reader blocked on a full
//! one returns), and closes the pool, which cuts every attachment's
//! stream and joins every reader.

use crate::context::NexusContext;
use crate::msg::recv_frame;
use crate::ports::PortPolicy;
use firewall::StopHandle;
use nexus_proxy::{nx_proxy_bind, NxListener, Workers};
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;
use wacs_sync::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

/// Queue depth before senders block (struggling consumers exert
/// backpressure on readers, as a real socket buffer would).
const QUEUE_DEPTH: usize = 4096;

/// A receiving endpoint.
pub struct Endpoint {
    advertised: (String, u16),
    rx: Receiver<Vec<u8>>,
    /// Ends the acceptor's blocked accept; the readers check it between
    /// frames.
    stop: StopHandle,
    acceptor: Option<JoinHandle<()>>,
    /// Runs each attachment's frame loop. Shared with the acceptor; no
    /// reader job holds it.
    readers: Arc<Workers>,
    inproc_key: (String, u16),
    exchange: crate::startpoint::InProcExchange,
}

impl Endpoint {
    pub(crate) fn create(ctx: &NexusContext) -> io::Result<Endpoint> {
        let (tx, rx) = bounded::<Vec<u8>>(QUEUE_DEPTH);

        let listener: NxListener = match ctx.port_policy() {
            PortPolicy::Dynamic => nx_proxy_bind(ctx.net(), ctx.proxy_env(), ctx.host())?,
            PortPolicy::Range { .. } => {
                // Port-range mode is the no-proxy alternative: bind a
                // port inside the range and advertise it directly.
                let mut bound = None;
                let mut last: Option<io::Error> = None;
                for port in ctx.next_listen_candidates() {
                    match crate::range_bind(ctx, port) {
                        Ok(l) => {
                            bound = Some(l);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                bound.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::AddrInUse, "port range exhausted")
                    })
                })?
            }
        };
        let advertised = listener.advertised.clone();
        let stop = listener.stop_handle();
        let readers = Arc::new(Workers::standalone());

        // Acceptor thread: accepts attachments, hands each to a reader.
        let acceptor = {
            let (stop, tx, readers) = (stop.clone(), tx.clone(), readers.clone());
            // lint:allow(daemon-spawn) the endpoint's accept loop, joined on drop
            thread::spawn(move || {
                // The listener stays registered as long as this loop runs.
                while let Some(stream) = listener.accept_until_stop() {
                    stream.set_nodelay(true).ok();
                    let stream = Arc::new(stream);
                    readers.register(&stream);
                    let (tx, stop) = (tx.clone(), stop.clone());
                    readers.run(move || read_frames(&stream, &tx, &stop));
                }
            })
        };

        // Register for same-process short-circuiting.
        let inproc_key = advertised.clone();
        ctx.inproc().register(inproc_key.clone(), tx);

        Ok(Endpoint {
            advertised,
            rx,
            stop,
            acceptor: Some(acceptor),
            readers,
            inproc_key,
            exchange: ctx.inproc().clone(),
        })
    }

    /// The address remote startpoints should attach to. Under a proxy
    /// this names the outer server's rendezvous port, exactly as the
    /// paper requires ("address information … should be changed to
    /// indicate the Nexus Proxy server").
    pub fn advertised(&self) -> (&str, u16) {
        (&self.advertised.0, self.advertised.1)
    }

    /// Blocking receive.
    pub fn recv(&self) -> io::Result<Vec<u8>> {
        self.rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "endpoint closed"))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> io::Result<Option<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "endpoint closed"))
            }
        }
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, d: Duration) -> io::Result<Option<Vec<u8>>> {
        match self.rx.recv_timeout(d) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "endpoint closed"))
            }
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        self.exchange.unregister(&self.inproc_key);
        // A reader blocked on a full queue waits on the receiver, not
        // on its stream: close the queue before joining the readers.
        self.rx.close();
        self.readers.close();
    }
}

/// One attachment's frame loop, run on a parked reader.
fn read_frames(mut stream: &TcpStream, tx: &Sender<Vec<u8>>, stop: &StopHandle) {
    while !stop.is_stopped() {
        match recv_frame(&mut stream) {
            Ok(Some(msg)) => {
                if tx.send(msg).is_err() {
                    break;
                }
            }
            Ok(None) | Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{proxied, world};
    use crate::NexusContext;
    use std::time::Instant;

    fn wait_parked(ep: &Endpoint, n: i64) {
        let end = Instant::now() + Duration::from_secs(5);
        while ep.readers.parked() != n {
            assert!(
                Instant::now() < end,
                "parked readers {} never reached {n}",
                ep.readers.parked()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn warm_sequential_channels_start_no_reader_thread() {
        let w = world();
        let ep = proxied(&w.net, "rwcp-sun").endpoint().unwrap();
        let full = ep.readers.parked();
        assert_eq!(full, nexus_proxy::PARKED as i64);
        let adv = (ep.advertised().0.to_string(), ep.advertised().1);
        let client = NexusContext::direct(w.net.clone(), "etl-sun");
        let round = |i: u8| {
            let sp = client.attach((&adv.0, adv.1)).unwrap();
            let msg = vec![i; 1024];
            sp.send(&msg).unwrap();
            assert_eq!(ep.recv().unwrap(), msg);
            // The reader parks again once the relay passes the close on.
            drop(sp);
            wait_parked(&ep, full);
        };
        round(0);
        let warm = ep.readers.spawns();
        for i in 1..=20 {
            round(i);
        }
        assert_eq!(ep.readers.spawns(), warm);
    }

    #[test]
    fn two_live_attachments_each_keep_their_order() {
        let w = world();
        let ep = proxied(&w.net, "rwcp-sun").endpoint().unwrap();
        let adv = (ep.advertised().0.to_string(), ep.advertised().1);
        let client = NexusContext::direct(w.net.clone(), "etl-sun");
        let sps: Vec<_> = (0..2)
            .map(|_| client.attach((&adv.0, adv.1)).unwrap())
            .collect();
        thread::scope(|s| {
            for (id, sp) in sps.iter().enumerate() {
                s.spawn(move || {
                    for seq in 0..200u32 {
                        let mut msg = vec![id as u8];
                        msg.extend_from_slice(&seq.to_be_bytes());
                        sp.send(&msg).unwrap();
                    }
                });
            }
        });
        let mut next = [0u32; 2];
        for _ in 0..400 {
            let msg = ep.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
            let id = usize::from(msg[0]);
            assert_eq!(u32::from_be_bytes(msg[1..5].try_into().unwrap()), next[id]);
            next[id] += 1;
        }
        assert_eq!(next, [200, 200]);
    }

    #[test]
    fn a_dropped_endpoint_leaves_no_reader_thread_behind() {
        let w = world();
        let ep = proxied(&w.net, "rwcp-sun").endpoint().unwrap();
        let readers = ep.readers.clone();
        let adv = (ep.advertised().0.to_string(), ep.advertised().1);
        let client = NexusContext::direct(w.net.clone(), "etl-sun");
        let sp = client.attach((&adv.0, adv.1)).unwrap();
        sp.send(b"live").unwrap();
        assert_eq!(ep.recv().unwrap(), b"live");
        assert_eq!(readers.threads(), nexus_proxy::PARKED);
        // The drop cuts the live attachment and joins its reader with
        // the parked ones.
        drop(ep);
        assert_eq!((readers.parked(), readers.threads()), (0, 0));
        drop(sp);
    }
}
