//! Seeded inputs: key splitting and the deterministic many-UE generator.
//!
//! Every random choice the benchmark makes descends from the `--seed`
//! argument through [`split`], the `jax.random.split` idiom: one parent key
//! yields an indexed family of child keys, and child `i` depends only on
//! the parent and `i`. Asking for more children therefore never changes the
//! ones already handed out — in particular, adding UEs never changes the
//! stream of an existing UE.

/// SplitMix64 finalizer: a bijective avalanche of a 64-bit word.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The root key of a run.
pub fn root_key(seed: u64) -> u64 {
    mix64(seed ^ 0x4C55_4D4F_5335_4721)
}

/// Child key `index` of `key`.
pub fn child(key: u64, index: u64) -> u64 {
    mix64(key ^ mix64(index.wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// `n` child keys of `key`: `split(key, n)[i] == child(key, i)` for any `n`.
pub fn split<const N: usize>(key: u64) -> [u64; N] {
    std::array::from_fn(|i| child(key, i as u64))
}

/// A many-UE arrival stream over one shared tape of records.
///
/// The tape is a campaign's passes laid end to end, each in time order. UE
/// `u` starts reading the tape at its own offset, drawn from
/// `child(key, u)`, and wraps around at the end; records keep their
/// original `pass_id`/`t`, so a UE's session resets at every pass boundary
/// exactly as a live handset's would. Arrivals are round-robin over UEs:
/// event `k` belongs to UE `k mod ues`.
#[derive(Debug, Clone)]
pub struct UeStreams<'a, T> {
    tape: &'a [T],
    cursors: Vec<usize>,
    next_ue: usize,
}

impl<'a, T> UeStreams<'a, T> {
    /// Streams for `ues` UEs over `tape` (which must not be empty).
    pub fn new(tape: &'a [T], ues: usize, key: u64) -> Self {
        assert!(!tape.is_empty(), "the tape holds no records");
        assert!(ues > 0, "need at least one UE");
        let cursors = (0..ues)
            .map(|ue| (child(key, ue as u64) % tape.len() as u64) as usize)
            .collect();
        UeStreams {
            tape,
            cursors,
            next_ue: 0,
        }
    }

    /// The next arrival: `(ue, record)`.
    pub fn next_event(&mut self) -> (u64, &'a T) {
        let ue = self.next_ue;
        self.next_ue = (ue + 1) % self.cursors.len();
        let at = self.cursors[ue];
        self.cursors[ue] = (at + 1) % self.tape.len();
        (ue as u64, &self.tape[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_ue(tape: &[u32], ues: usize, key: u64, events: usize) -> Vec<Vec<u32>> {
        let mut streams = UeStreams::new(tape, ues, key);
        let mut out = vec![Vec::new(); ues];
        for _ in 0..events {
            let (ue, &r) = streams.next_event();
            out[ue as usize].push(r);
        }
        out
    }

    #[test]
    fn split_children_do_not_depend_on_how_many_are_drawn() {
        let key = root_key(7);
        let few: [u64; 3] = split(key);
        let many: [u64; 9] = split(key);
        assert_eq!(few, many[..3]);
        assert_eq!(few[2], child(key, 2));
        // Distinct children, and distinct parents give distinct children.
        assert_ne!(few[0], few[1]);
        assert_ne!(child(root_key(8), 0), few[0]);
    }

    #[test]
    fn same_seed_gives_the_same_event_stream() {
        let tape: Vec<u32> = (0..1000).collect();
        let key = child(root_key(3), 1);
        let mut a = UeStreams::new(&tape, 37, key);
        let mut b = UeStreams::new(&tape, 37, key);
        for _ in 0..5000 {
            assert_eq!(a.next_event(), b.next_event());
        }
        let other = per_ue(&tape, 37, child(root_key(4), 1), 5000);
        assert_ne!(per_ue(&tape, 37, key, 5000), other);
    }

    #[test]
    fn adding_ues_keeps_every_existing_stream() {
        let tape: Vec<u32> = (0..500).collect();
        let key = root_key(11);
        let small = per_ue(&tape, 8, key, 8 * 300);
        let large = per_ue(&tape, 64, key, 64 * 300);
        for ue in 0..8 {
            assert_eq!(small[ue], large[ue], "UE {ue} changed");
            // 300 reads from a 500-record tape: one contiguous, wrapping run.
            let start = small[ue][0] as usize;
            let expect: Vec<u32> = (0..300).map(|k| ((start + k) % 500) as u32).collect();
            assert_eq!(small[ue], expect);
        }
    }
}
