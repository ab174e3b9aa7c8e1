//! `gridmpi` — an MPICH-G-style message passing library for the
//! firewall-compliant wide-area cluster.
//!
//! The paper implements its knapsack workload with MPICH-G (Globus's
//! grid-enabled MPI). This crate reproduces the pieces that matter for
//! that experiment and its measurements:
//!
//! * point-to-point send/recv with source/tag matching and an
//!   unexpected-message queue ([`comm`]);
//! * non-blocking probe (`iprobe`) — the primitive the self-scheduling
//!   master polls between branch operations;
//! * binomial-tree collectives plus a flat-broadcast baseline for the
//!   wide-area collective ablation ([`collective`]);
//! * big-endian wire conversion for heterogeneous hosts ([`datatype`]);
//! * a world launcher that plays DUROC's address-exchange role
//!   ([`world`]).
//!
//! Transport comes from [`nexus`]: each rank carries a `NexusContext`,
//! so ranks behind the firewall transparently route through the Nexus
//! Proxy while ranks on open hosts connect directly.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod collective;
pub mod comm;
pub mod datatype;
pub mod packet;
pub mod world;

pub use collective::ReduceOp;
pub use comm::{Comm, ANY_SOURCE, ANY_TAG, STRIPE_CHUNK_BYTES, STRIPE_TAG};
pub use world::{run_world, RankSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use firewall::vnet::VNet;
    use firewall::{Policy, NXPORT, OUTER_PORT};
    use nexus::NexusContext;
    use nexus_proxy::{InnerConfig, InnerServer, OuterConfig, OuterServer};

    struct World {
        net: VNet,
        _outer: OuterServer,
        _inner: InnerServer,
    }

    /// Two sites; RWCP firewalled with proxy, ETL open. COMPaS nodes
    /// compas0..compas3 inside, etl0..etl3 outside.
    fn world() -> World {
        let net = VNet::new();
        let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
        let dmz = net.add_site("dmz", None);
        let etl = net.add_site("etl", None);
        net.add_host("rwcp-sun", rwcp);
        for i in 0..4 {
            net.add_host(format!("compas{i}"), rwcp);
        }
        let inner_ref = net.add_host("rwcp-inner", rwcp);
        net.add_host("rwcp-outer", dmz);
        for i in 0..4 {
            net.add_host(format!("etl{i}"), etl);
        }
        net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
        let inner = InnerServer::start(net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
        let outer = OuterServer::start(
            net.clone(),
            OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
        )
        .unwrap();
        World {
            net,
            _outer: outer,
            _inner: inner,
        }
    }

    /// n inside ranks (proxied) + m outside ranks (direct): the
    /// wide-area cluster layout.
    fn specs(w: &World, inside: usize, outside: usize) -> Vec<RankSpec> {
        let mut v = Vec::new();
        for i in 0..inside {
            v.push(RankSpec::new(NexusContext::via_proxy(
                w.net.clone(),
                format!("compas{i}"),
                ("rwcp-outer", OUTER_PORT),
            )));
        }
        for i in 0..outside {
            v.push(RankSpec::new(NexusContext::direct(
                w.net.clone(),
                format!("etl{i}"),
            )));
        }
        v
    }

    #[test]
    fn ring_across_the_firewall() {
        let w = world();
        let results = run_world(specs(&w, 2, 2), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            if comm.rank() == 0 {
                comm.send(next, 1, b"token").unwrap();
                let (src, _, data) = comm.recv(Some(prev), Some(1)).unwrap();
                (src, data)
            } else {
                let (src, _, data) = comm.recv(Some(prev), Some(1)).unwrap();
                comm.send(next, 1, &data).unwrap();
                (src, data)
            }
        })
        .unwrap();
        for (i, (src, data)) in results.iter().enumerate() {
            assert_eq!(*src, ((i as u32) + 3) % 4);
            assert_eq!(data, b"token");
        }
    }

    #[test]
    fn send_recv_with_tag_matching() {
        let w = world();
        let results = run_world(specs(&w, 0, 2), |comm| {
            if comm.rank() == 0 {
                // Send out of order; receiver matches by tag.
                comm.send(1, 7, b"seven").unwrap();
                comm.send(1, 8, b"eight").unwrap();
                Vec::new()
            } else {
                let (_, _, eight) = comm.recv(Some(0), Some(8)).unwrap();
                let (_, _, seven) = comm.recv(Some(0), Some(7)).unwrap();
                vec![eight, seven]
            }
        })
        .unwrap();
        assert_eq!(results[1], vec![b"eight".to_vec(), b"seven".to_vec()]);
    }

    #[test]
    fn iprobe_and_try_recv() {
        let w = world();
        run_world(specs(&w, 0, 2), |comm| {
            if comm.rank() == 0 {
                // Nothing waiting yet.
                assert!(!comm.iprobe(None, Some(3)).unwrap());
                comm.send(1, 3, b"go").unwrap();
                // Wait for the reply.
                let got = comm.recv(Some(1), Some(4)).unwrap();
                assert_eq!(got.2, b"done");
            } else {
                // Poll until the message shows up (the master's loop).
                loop {
                    if comm.iprobe(Some(0), Some(3)).unwrap() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let (_, _, data) = comm.try_recv(Some(0), Some(3)).unwrap().unwrap();
                assert_eq!(data, b"go");
                comm.send(0, 4, b"done").unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn collectives_on_mixed_cluster() {
        let w = world();
        let results = run_world(specs(&w, 2, 3), |comm| {
            // Barrier first (exercises the tree).
            comm.barrier().unwrap();
            // Broadcast from rank 2.
            let data = if comm.rank() == 2 {
                b"payload".to_vec()
            } else {
                Vec::new()
            };
            let got = comm.bcast(2, data).unwrap();
            assert_eq!(got, b"payload");
            // Allreduce a vector.
            let local = vec![comm.rank() as f64, 1.0];
            let sum = comm.allreduce_f64(local, ReduceOp::Sum).unwrap();
            // Gather rank bytes at 0.
            let g = comm.gather(0, vec![comm.rank() as u8]).unwrap();
            if comm.rank() == 0 {
                let g = g.unwrap();
                assert_eq!(g, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
            }
            sum
        })
        .unwrap();
        for sum in results {
            assert_eq!(sum, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
        }
    }

    #[test]
    fn flat_and_tree_bcast_agree() {
        let w = world();
        let results = run_world(specs(&w, 1, 3), |comm| {
            let data = if comm.rank() == 0 {
                vec![9u8; 100]
            } else {
                vec![]
            };
            let a = comm.bcast(0, data.clone()).unwrap();
            comm.barrier().unwrap();
            let b = comm.bcast_flat(0, data).unwrap();
            (a, b)
        })
        .unwrap();
        for (a, b) in results {
            assert_eq!(a, vec![9u8; 100]);
            assert_eq!(b, vec![9u8; 100]);
        }
    }

    #[test]
    fn scatter_delivers_per_rank_blobs() {
        let w = world();
        let results = run_world(specs(&w, 1, 3), |comm| {
            let blobs = if comm.rank() == 1 {
                Some((0..4).map(|r| vec![r as u8; (r + 1) as usize]).collect())
            } else {
                None
            };
            comm.scatter(1, blobs).unwrap()
        })
        .unwrap();
        for (r, blob) in results.iter().enumerate() {
            assert_eq!(blob, &vec![r as u8; r + 1], "rank {r}");
        }
    }

    #[test]
    fn allgather_collects_everywhere() {
        let w = world();
        let results = run_world(specs(&w, 2, 2), |comm| {
            let mine = format!("rank-{}@{}", comm.rank(), comm.host()).into_bytes();
            comm.allgather(mine).unwrap()
        })
        .unwrap();
        // Every rank sees everyone's contribution in rank order.
        for all in &results {
            assert_eq!(all.len(), 4);
            for (r, blob) in all.iter().enumerate() {
                assert!(
                    String::from_utf8_lossy(blob).starts_with(&format!("rank-{r}@")),
                    "{blob:?}"
                );
            }
        }
        // And all views agree.
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn scatter_root_argument_validation() {
        let w = world();
        run_world(specs(&w, 0, 2), |comm| {
            if comm.rank() == 0 {
                // Wrong blob count must error, not hang the peers: do a
                // correct scatter afterwards so rank 1 completes.
                assert!(comm.scatter(0, Some(vec![vec![]; 5])).is_err());
                assert!(comm.scatter(0, None).is_err());
                let mine = comm
                    .scatter(0, Some(vec![b"a".to_vec(), b"b".to_vec()]))
                    .unwrap();
                assert_eq!(mine, b"a");
            } else {
                let mine = comm.scatter(0, None).unwrap();
                assert_eq!(mine, b"b");
            }
        })
        .unwrap();
    }

    #[test]
    fn reduce_u64_and_min_max() {
        let w = world();
        let results = run_world(specs(&w, 0, 4), |comm| {
            let r = comm.rank() as u64;
            let mx = comm.reduce_u64(0, vec![r], ReduceOp::Max).unwrap();
            comm.barrier().unwrap();
            let mn = comm.reduce_u64(0, vec![r + 10], ReduceOp::Min).unwrap();
            (mx, mn)
        })
        .unwrap();
        assert_eq!(results[0].0.as_ref().unwrap(), &vec![3]);
        assert_eq!(results[0].1.as_ref().unwrap(), &vec![10]);
        for r in &results[1..] {
            assert!(r.0.is_none() && r.1.is_none());
        }
    }

    #[test]
    fn alltoall_personalized_exchange() {
        let w = world();
        let results = run_world(specs(&w, 2, 2), |comm| {
            let blobs: Vec<Vec<u8>> = (0..comm.size())
                .map(|dst| vec![comm.rank() as u8, dst as u8])
                .collect();
            comm.alltoall(blobs).unwrap()
        })
        .unwrap();
        for (me, got) in results.iter().enumerate() {
            for (src, blob) in got.iter().enumerate() {
                assert_eq!(blob, &vec![src as u8, me as u8], "rank {me} from {src}");
            }
        }
        // Wrong blob count errors.
        let w2 = world();
        run_world(specs(&w2, 0, 1), |comm| {
            assert!(comm.alltoall(vec![]).is_err());
        })
        .unwrap();
    }

    #[test]
    fn sendrecv_symmetric_exchange() {
        let w = world();
        let results = run_world(specs(&w, 1, 1), |comm| {
            let peer = 1 - comm.rank();
            let mine = format!("from-{}", comm.rank());
            let (src, _, got) = comm
                .sendrecv(peer, 5, mine.as_bytes(), Some(peer), Some(5))
                .unwrap();
            (src, got)
        })
        .unwrap();
        assert_eq!(results[0], (1, b"from-1".to_vec()));
        assert_eq!(results[1], (0, b"from-0".to_vec()));
    }

    #[test]
    fn wtime_advances() {
        let w = world();
        run_world(specs(&w, 0, 1), |comm| {
            let t0 = comm.wtime();
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(comm.wtime() > t0);
        })
        .unwrap();
    }

    #[test]
    fn recv_timeout_returns_none() {
        let w = world();
        run_world(specs(&w, 0, 2), |comm| {
            if comm.rank() == 0 {
                let got = comm
                    .recv_timeout(Some(1), Some(5), std::time::Duration::from_millis(30))
                    .unwrap();
                assert!(got.is_none());
            }
            comm.barrier().unwrap();
        })
        .unwrap();
    }

    /// A relay reconnect mid-stream (the cached startpoint torn down
    /// between sends) must not reorder, drop, or duplicate messages:
    /// the proxied sender re-attaches through the outer server and the
    /// receiver sees every payload exactly once, in order.
    #[test]
    fn reconnect_mid_stream_preserves_order() {
        let w = world();
        let results = run_world(specs(&w, 1, 1), |comm| {
            if comm.rank() == 0 {
                for i in 0u8..5 {
                    comm.send(1, 0, &[i]).unwrap();
                }
                // Tear down the cached relay attachment, as a proxy
                // restart would; the next send must re-attach.
                comm.reset_peer_link(1);
                for i in 5u8..10 {
                    comm.send(1, 0, &[i]).unwrap();
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..10 {
                    let (_, _, data) = comm.recv(Some(0), Some(0)).unwrap();
                    got.extend_from_slice(&data);
                }
                assert_eq!(comm.duplicates_dropped(), 0);
                got
            }
        })
        .unwrap();
        assert_eq!(results[1], (0u8..10).collect::<Vec<u8>>());
    }

    /// A retransmitted frame that survives on *both* the dying and the
    /// fresh connection is delivered once: the receiver's per-source
    /// sequence dedup drops the duplicate copy.
    #[test]
    fn duplicate_frames_are_dropped_by_sequence() {
        let w = world();
        let net = w.net.clone();
        let results = run_world(specs(&w, 0, 2), move |comm| {
            if comm.rank() == 0 {
                // Normal send: seq 1 on the (0 -> 1) pair.
                comm.send(1, 5, b"dup").unwrap();
                // Learn rank 1's endpoint address from rank 1 itself.
                let (_, _, addr) = comm.recv(Some(1), Some(9)).unwrap();
                let addr = String::from_utf8(addr).unwrap();
                let (host, port) = addr.rsplit_once(':').unwrap();
                // Replay the same frame on a fresh raw connection, as
                // a sender that could not tell whether the original
                // survived a dying relay would.
                let raw = NexusContext::direct(net.clone(), "etl2");
                let sp = raw.attach((host, port.parse().unwrap())).unwrap();
                sp.send(&packet::Packet::encode(0, 5, 1, b"dup")).unwrap();
                // Hold the connection open until rank 1 confirms.
                let (_, _, ok) = comm.recv(Some(1), Some(6)).unwrap();
                assert_eq!(ok, b"seen");
                0
            } else {
                let (h, p) = comm.advertised();
                let addr = format!("{h}:{p}");
                comm.send(0, 9, addr.as_bytes()).unwrap();
                let (_, _, data) = comm.recv(Some(0), Some(5)).unwrap();
                assert_eq!(data, b"dup");
                // Drain until the replayed copy arrives and is dropped.
                for _ in 0..2000 {
                    comm.iprobe(None, None).unwrap();
                    if comm.duplicates_dropped() >= 1 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                assert_eq!(comm.duplicates_dropped(), 1);
                // No second copy of the payload was delivered.
                assert!(!comm.iprobe(Some(0), Some(5)).unwrap());
                comm.send(0, 6, b"seen").unwrap();
                comm.duplicates_dropped()
            }
        })
        .unwrap();
        assert_eq!(results[1], 1);
    }

    /// A striped bulk send (K parallel stripe flows, each with its own
    /// seq space) reassembles byte-identically at the receiver and is
    /// delivered as one ordinary tagged message.
    #[test]
    fn striped_send_reassembles_byte_identically() {
        let w = world();
        // Big enough for several chunks per stripe, with an uneven
        // tail chunk (not a multiple of STRIPE_CHUNK_BYTES).
        let payload: Vec<u8> = (0..(5 * STRIPE_CHUNK_BYTES as usize + 12345))
            .map(|i| (i % 251) as u8)
            .collect();
        let want = payload.clone();
        let results = run_world(specs(&w, 1, 1), move |comm| {
            if comm.rank() == 0 {
                comm.send_striped(1, 7, &payload, 4).unwrap();
                // Small striped transfers on the same pair must each get
                // a fresh transfer id and arrive intact too. 4 B over
                // two lanes leaves lane 1 without a chunk: it must not
                // dial a receiver that may already have finished.
                for _ in 0..200 {
                    comm.send_striped(1, 8, b"tail", 2).unwrap();
                }
                Vec::new()
            } else {
                let (src, tag, data) = comm.recv(Some(0), Some(7)).unwrap();
                assert_eq!((src, tag), (0, 7));
                for _ in 0..200 {
                    let (_, _, tail) = comm.recv(Some(0), Some(8)).unwrap();
                    assert_eq!(tail, b"tail");
                }
                assert_eq!(comm.striped_completed(), 201);
                data
            }
        })
        .unwrap();
        assert_eq!(results[1], want);
    }

    /// A striped send across the firewall (proxied sender) still
    /// reassembles: stripe frames ride the relay like any packet.
    #[test]
    fn striped_send_through_the_proxy() {
        let w = world();
        let payload: Vec<u8> = (0..200_000).map(|i| (i % 17) as u8).collect();
        let want = payload.clone();
        let results = run_world(specs(&w, 1, 1), move |comm| {
            if comm.rank() == 0 {
                comm.send_striped(1, 3, &payload, 3).unwrap();
                Vec::new()
            } else {
                let (_, _, data) = comm.recv(Some(0), Some(3)).unwrap();
                data
            }
        })
        .unwrap();
        assert_eq!(results[1], want);
    }

    /// The send path itself retransmits when the cached attachment
    /// errors mid-send: kill the receiving endpoint between sends and
    /// rebind it at the same address — the sender's cached startpoint
    /// fails, and the frame goes out again on a fresh attachment.
    #[test]
    fn dead_attachment_triggers_reconnect_and_resend() {
        use nexus::{InProcExchange, PortPolicy};
        let w = world();
        const PORT: u16 = 47_000;
        let ex = InProcExchange::new();
        let ctx1 = NexusContext::direct(w.net.clone(), "etl1")
            .with_port_policy(PortPolicy::range(PORT, PORT))
            .with_shared_inproc(ex.clone());
        let ctx0 = NexusContext::direct(w.net.clone(), "etl0").with_shared_inproc(ex);
        let ep1a = ctx1.endpoint().unwrap();
        assert_eq!(ep1a.advertised().1, PORT);
        let ep0 = ctx0.endpoint().unwrap();
        let addrs = std::sync::Arc::new(vec![
            (ep0.advertised().0.to_string(), ep0.advertised().1),
            ("etl1".to_string(), PORT),
        ]);
        let comm = comm::Comm::new(0, 2, ctx0, ep0, addrs);

        comm.send(1, 0, b"before").unwrap();
        let first = packet::Packet::decode(ep1a.recv().unwrap()).unwrap();
        assert_eq!((first.seq, &first.payload[..]), (1, &b"before"[..]));

        // Kill the endpoint, then bring a new one up at the same
        // address (the old listener needs a moment to release it).
        drop(ep1a);
        let ep1b = loop {
            match ctx1.endpoint() {
                Ok(ep) => break ep,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        };

        comm.send(1, 0, b"after").unwrap();
        assert_eq!(comm.resends(), 1, "cached startpoint death must resend");
        let second = packet::Packet::decode(ep1b.recv().unwrap()).unwrap();
        assert_eq!((second.seq, &second.payload[..]), (2, &b"after"[..]));
    }
}
