//! Everything the program is fed derives from `--seed`: payload bytes,
//! the control-frame mix and the open-loop arrival schedule. The
//! program only ever sees these generated inputs, never the seed.

use nexus_proxy::Msg;

/// SplitMix64: small, seedable, and good enough for payload bytes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: the same `(seed, label)` always gives
    /// the same values, and different labels give unrelated streams.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

pub fn payload(seed: u64, label: &str, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, label);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Order-sensitive running checksum over 8-byte words (Fletcher-style,
/// two wrapping accumulators), cheap enough not to bound a bulk sink.
/// Both ends feed it whole multiples of 8 bytes.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Checksum {
    a: u64,
    b: u64,
    pub bytes: u64,
}

impl Checksum {
    pub fn update(&mut self, data: &[u8]) {
        debug_assert_eq!(data.len() % 8, 0);
        let (mut a, mut b) = (self.a, self.b);
        for w in data.chunks_exact(8) {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(w);
            a = a.wrapping_add(u64::from_le_bytes(raw));
            b = b.wrapping_add(a);
        }
        self.a = a;
        self.b = b;
        self.bytes += data.len() as u64;
    }

    pub fn to_bytes(self) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..16].copy_from_slice(&self.b.to_le_bytes());
        out[16..].copy_from_slice(&self.bytes.to_le_bytes());
        out
    }

    pub fn from_bytes(raw: &[u8; 24]) -> Checksum {
        let word = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&raw[i..i + 8]);
            u64::from_le_bytes(w)
        };
        Checksum {
            a: word(0),
            b: word(8),
            bytes: word(16),
        }
    }
}

fn host(rng: &mut Rng) -> String {
    format!("host-{:x}", rng.below(1 << 20))
}

fn endpoints(rng: &mut Rng) -> Vec<(String, u16)> {
    (0..1 + rng.below(4))
        .map(|_| (host(rng), rng.below(65536) as u16))
        .collect()
}

/// A seeded mix holding every `Msg` variant in equal shares.
pub fn msg_mix(seed: u64, count: usize) -> Vec<Msg> {
    let mut rng = Rng::new(seed, "msg-mix");
    (0..count)
        .map(|i| {
            let port = rng.below(65536) as u16;
            match i % 12 {
                0 => Msg::ConnectReq {
                    host: host(&mut rng),
                    port,
                },
                1 => Msg::ConnectRep {
                    ok: rng.below(2) == 0,
                    detail: host(&mut rng),
                },
                2 => Msg::BindReq {
                    host: host(&mut rng),
                    port,
                    fallback: rng.below(2) == 0,
                },
                3 => Msg::BindRep { rdv_port: port },
                4 => Msg::RelayReq {
                    host: host(&mut rng),
                    port,
                },
                5 => Msg::RelayRep {
                    ok: rng.below(2) == 0,
                },
                6 => Msg::Ping {
                    seq: rng.next_u64() as u32,
                },
                7 => Msg::Pong {
                    seq: rng.next_u64() as u32,
                },
                8 => Msg::Busy,
                9 => Msg::BindSync {
                    binds: endpoints(&mut rng),
                },
                10 => Msg::Redirect {
                    host: host(&mut rng),
                    port,
                },
                _ => Msg::ShardSync {
                    gen: rng.next_u64(),
                    sender: rng.below(8) as u16,
                    members: endpoints(&mut rng),
                },
            }
        })
        .collect()
}

/// Due times (ns from the window start) of a Poisson arrival process
/// at `rate_per_s`, covering `window_ns`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, "poisson");
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate_per_s * 1e9;
        if t >= window_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(payload(7, "echo", 4096), payload(7, "echo", 4096));
        assert_ne!(payload(7, "echo", 4096), payload(8, "echo", 4096));
        assert_ne!(payload(7, "echo", 4096), payload(7, "bulk", 4096));
        assert_eq!(payload(7, "echo", 13).len(), 13);
        assert_eq!(msg_mix(7, 240), msg_mix(7, 240));
        assert_ne!(msg_mix(7, 240), msg_mix(8, 240));
        assert_eq!(
            poisson_schedule(7, 300.0, 2_000_000_000),
            poisson_schedule(7, 300.0, 2_000_000_000)
        );
        assert_ne!(
            poisson_schedule(7, 300.0, 2_000_000_000),
            poisson_schedule(8, 300.0, 2_000_000_000)
        );
    }

    #[test]
    fn mix_holds_every_variant_and_round_trips() {
        let mix = msg_mix(3, 120);
        let mut kinds: Vec<_> = mix.iter().map(std::mem::discriminant).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 120, "neighbours always differ in kind");
        let distinct: std::collections::HashSet<_> =
            mix.iter().map(std::mem::discriminant).collect();
        assert_eq!(distinct.len(), 12);
        for m in &mix {
            let frame = m.encode().expect("generated frames fit the wire format");
            assert_eq!(&Msg::decode(&frame[4..]).expect("decodes"), m);
        }
    }

    #[test]
    fn poisson_schedule_is_ordered_and_near_its_rate() {
        let due = poisson_schedule(11, 400.0, 10_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < 10_000_000_000));
        let n = due.len() as f64;
        assert!((3_600.0..4_400.0).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn checksum_depends_on_order_and_survives_the_wire() {
        let p = payload(5, "sum", 1 << 16);
        let mut whole = Checksum::default();
        whole.update(&p);
        let mut parts = Checksum::default();
        parts.update(&p[..4096]);
        parts.update(&p[4096..]);
        assert_eq!(whole, parts);
        let mut swapped = Checksum::default();
        swapped.update(&p[4096..]);
        swapped.update(&p[..4096]);
        assert_ne!(whole, swapped);
        assert_eq!(Checksum::from_bytes(&whole.to_bytes()), whole);
    }
}
