//! Seed derivation: every input the benchmark sends comes from one
//! command-line seed, so the same seed gives the same request stream.
//!
//! Each consumer (a client thread of a workload, the probe set, the warm-up)
//! gets its own [`SeedStream`], keyed by a label and an index. A client's
//! sequence is fixed by the seed; only the interleaving of the two clients'
//! requests on the server depends on timing.

/// SplitMix64 finalizer: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a of a label, so streams are keyed by readable names.
fn label_hash(label: &str) -> u64 {
    label.bytes().fold(0xCBF2_9CE4_8422_2325, |acc, b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// A deterministic stream of request seeds.
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// The stream named `label` (for instance `"native-closed/client"`),
    /// instance `index`, under the run's root `seed`.
    pub fn new(seed: u64, label: &str, index: u64) -> Self {
        Self {
            state: mix(mix(seed) ^ label_hash(label) ^ mix(index.wrapping_add(1))),
        }
    }

    /// The next seed of the stream. Kept below 2^53 so it survives a JSON
    /// number exactly.
    pub fn next_seed(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state) >> 11
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mut stream: SeedStream, n: usize) -> Vec<u64> {
        (0..n).map(|_| stream.next_seed()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        let a = take(SeedStream::new(7, "sim-cold/client", 0), 64);
        let b = take(SeedStream::new(7, "sim-cold/client", 0), 64);
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_seed_label_and_index() {
        let base = take(SeedStream::new(7, "sim-cold/client", 0), 16);
        assert_ne!(base, take(SeedStream::new(8, "sim-cold/client", 0), 16));
        assert_ne!(
            base,
            take(SeedStream::new(7, "native-closed/client", 0), 16)
        );
        assert_ne!(base, take(SeedStream::new(7, "sim-cold/client", 1), 16));
    }

    #[test]
    fn seeds_fit_a_json_number_and_do_not_repeat() {
        let seeds = take(SeedStream::new(1, "x", 0), 4096);
        assert!(seeds.iter().all(|&s| s < (1u64 << 53)));
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
    }
}
