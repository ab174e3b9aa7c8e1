//! Endpoints: the passive (receiving) half of a Nexus channel.
//!
//! An endpoint owns a listener (registered with the Nexus Proxy when
//! one is configured), an acceptor thread, and one reader thread per
//! attached startpoint. All arriving messages multiplex into a single
//! queue, preserving per-startpoint order.

use crate::context::NexusContext;
use crate::msg::recv_frame;
use crate::ports::PortPolicy;
use firewall::StopHandle;
use nexus_proxy::{nx_proxy_bind, NxListener};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
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
    // Handshake-acceptance tally shared with the accept thread; not
    // registry-backed (nexus has no registry). lint:allow(bare-atomic-counter)
    accepted: Arc<AtomicU64>,
    inproc_key: (String, u16),
    exchange: crate::startpoint::InProcExchange,
}

impl Endpoint {
    pub(crate) fn create(ctx: &NexusContext) -> io::Result<Endpoint> {
        let (tx, rx) = bounded::<Vec<u8>>(QUEUE_DEPTH);
        let accepted = Arc::new(AtomicU64::new(0)); // lint:allow(bare-atomic-counter)

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

        // Acceptor thread: accepts attachments, spawns a reader each.
        {
            let stop = stop.clone();
            let tx = tx.clone();
            let accepted = accepted.clone();
            thread::spawn(move || {
                // The listener stays registered as long as this loop runs.
                while let Some(stream) = listener.accept_until_stop() {
                    stream.set_nodelay(true).ok();
                    accepted.fetch_add(1, Ordering::Relaxed);
                    spawn_reader(stream, tx.clone(), stop.clone());
                }
            });
        }

        // Register for same-process short-circuiting.
        let inproc_key = advertised.clone();
        ctx.inproc().register(inproc_key.clone(), tx);

        Ok(Endpoint {
            advertised,
            rx,
            stop,
            accepted,
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

    /// Number of startpoints that have attached over the network.
    pub fn attachments(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Messages waiting in the queue.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.stop.stop();
        self.exchange.unregister(&self.inproc_key);
    }
}

fn spawn_reader(stream: std::net::TcpStream, tx: Sender<Vec<u8>>, stop: StopHandle) {
    thread::spawn(move || {
        let mut stream = stream;
        loop {
            if stop.is_stopped() {
                break;
            }
            match recv_frame(&mut stream) {
                Ok(Some(msg)) => {
                    if tx.send(msg).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
    });
}
