//! The benchmark's own request generator. `--seed` enters here and nowhere
//! else on the request path: the targets only ever see generated tickets.

/// One pre-drawn request. Same shape as `wdog_target::WorkloadTicket`, so
/// the request mix mirrors each target's own load surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Key index in `[0, keys)`.
    pub key: usize,
    /// Whether this request is a write.
    pub write: bool,
    /// Uniform roll in `[0, 10)` for sub-op selection (set / append / del).
    pub roll: u32,
    /// Payload discriminator.
    pub value: u32,
}

/// A seeded ticket stream for one client (SplitMix64 underneath).
#[derive(Debug, Clone)]
pub struct TicketGen {
    state: u64,
    keys: usize,
    write_fraction: f64,
    client: usize,
    clients: usize,
}

impl TicketGen {
    /// A stream for client `client` of `clients`, drawing keys from this
    /// client's residue class of `[0, keys)` — clients never touch each
    /// other's keys, so each can check the values it reads back.
    pub fn new(seed: u64, client: usize, clients: usize, keys: usize, write_fraction: f64) -> Self {
        assert!(clients >= 1 && client < clients && keys >= clients);
        Self {
            state: mix(seed ^ mix(client as u64 + 1)),
            keys,
            write_fraction,
            client,
            clients,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Draws the next ticket.
    pub fn next_ticket(&mut self) -> Ticket {
        let per_client = self.keys / self.clients;
        let slot = (self.next_u64() % per_client as u64) as usize;
        // 53 uniform bits in [0, 1): strictly below 1.0 and never below 0.0,
        // so fractions 1 and 0 are all-writes and all-reads exactly.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let r = self.next_u64();
        Ticket {
            key: slot * self.clients + self.client,
            write: u < self.write_fraction,
            roll: (r % 10) as u32,
            value: (r >> 32) as u32,
        }
    }
}

/// The SplitMix64 output function; also derives sub-seeds from labels.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed of `seed` for the purpose named by `label` and `index`.
pub fn sub_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = mix(seed);
    for b in label.bytes() {
        h = mix(h ^ u64::from(b));
    }
    mix(h ^ index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TicketGen::new(42, 1, 2, 4096, 0.9);
        let mut b = TicketGen::new(42, 1, 2, 4096, 0.9);
        let mut c = TicketGen::new(43, 1, 2, 4096, 0.9);
        let sa: Vec<Ticket> = (0..1000).map(|_| a.next_ticket()).collect();
        let sb: Vec<Ticket> = (0..1000).map(|_| b.next_ticket()).collect();
        let sc: Vec<Ticket> = (0..1000).map(|_| c.next_ticket()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn write_fraction_zero_and_one_are_exact() {
        let mut reads = TicketGen::new(7, 0, 2, 64, 0.0);
        let mut writes = TicketGen::new(7, 0, 2, 64, 1.0);
        for _ in 0..100_000 {
            assert!(!reads.next_ticket().write);
            assert!(writes.next_ticket().write);
        }
    }

    #[test]
    fn keys_stay_in_the_clients_residue_class() {
        for client in 0..2 {
            let mut g = TicketGen::new(1, client, 2, 4096, 0.5);
            for _ in 0..10_000 {
                let t = g.next_ticket();
                assert!(t.key < 4096 && t.key % 2 == client && t.roll < 10);
            }
        }
    }

    #[test]
    fn mixed_fraction_is_close() {
        let mut g = TicketGen::new(3, 0, 1, 16, 0.9);
        let writes = (0..100_000).filter(|_| g.next_ticket().write).count();
        assert!((89_000..91_000).contains(&writes), "{writes}");
    }

    #[test]
    fn sub_seeds_differ_by_label_and_index() {
        assert_ne!(sub_seed(1, "a", 0), sub_seed(1, "b", 0));
        assert_ne!(sub_seed(1, "a", 0), sub_seed(1, "a", 1));
        assert_eq!(sub_seed(1, "a", 0), sub_seed(1, "a", 0));
    }
}
