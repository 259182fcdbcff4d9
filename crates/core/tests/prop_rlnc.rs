//! Property tests for the RLNC layer: a [`CodedBasis`] fed `k`
//! linearly independent GF(2^8) combinations must always decode back
//! to the original generation payloads, regardless of which
//! combinations arrive, in which order, or how many dependent packets
//! are mixed in along the way.

use ocd_core::gf256;
use ocd_core::{CodedBasis, CodedPacket};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic generation: `k` payloads of `len` bytes seeded from
/// the proptest case.
fn generation(k: usize, len: usize, salt: u8) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| (i.wrapping_mul(37) ^ j.wrapping_mul(11) ^ salt as usize) as u8)
                .collect()
        })
        .collect()
}

/// Payload lengths: every short length, then each side of the 32-byte
/// vector width and its multiples, and a long tail past a whole
/// kilobyte.
const LENS: [usize; 25] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 31, 32, 33, 63, 64, 65, 1024, 1031,
];

proptest! {
    /// Round trip at random k ≤ 32: random combinations drawn from the
    /// source basis are absorbed until rank k; exactly k of them are
    /// innovative, and decoding reproduces the payloads byte for byte.
    #[test]
    fn k_independent_combinations_decode_to_the_generation(
        k in 1usize..=32,
        len in (0..LENS.len()).prop_map(|i| LENS[i]),
        salt in 0u8..=255,
        seed in 0u64..1_000_000,
    ) {
        let payloads = generation(k, len, salt);
        let source = CodedBasis::source(&payloads);
        let mut sink = CodedBasis::new(k, len);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut innovative = 0usize;
        let mut fed = 0usize;
        while !sink.is_complete() {
            let packet = source.random_packet(&mut rng);
            prop_assert_eq!(packet.coeffs.len(), k);
            prop_assert_eq!(packet.payload.len(), len);
            let fresh = sink.is_innovative(&packet.coeffs);
            prop_assert_eq!(sink.absorb(packet), fresh,
                "absorb must agree with the non-mutating innovation check");
            if fresh {
                innovative += 1;
            }
            fed += 1;
            prop_assert!(fed < 64 * k + 64, "rank must keep growing");
        }
        prop_assert_eq!(innovative, k, "exactly k packets were independent");
        prop_assert_eq!(sink.rank(), k);
        prop_assert_eq!(sink.deficit(), 0);
        let decoded = sink.decode().expect("complete basis decodes");
        prop_assert_eq!(decoded, payloads);
    }

    /// Every mixture of the generation payloads is consistent: a packet
    /// built by explicit scalar arithmetic from random coefficients is
    /// absorbed with the payload the coefficients dictate, and a second
    /// basis filled from *relayed* re-combinations (not source packets)
    /// still decodes to the original generation.
    #[test]
    fn relayed_recombinations_still_decode(
        k in 1usize..=16,
        len in 1usize..=8,
        seed in 0u64..1_000_000,
    ) {
        let payloads = generation(k, len, 0x9E);
        let source = CodedBasis::source(&payloads);
        let mut relay = CodedBasis::new(k, len);
        let mut sink = CodedBasis::new(k, len);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut guard = 0usize;
        while !sink.is_complete() {
            // The relay pulls from the source, the sink only ever sees
            // the relay's re-mixed packets.
            let _ = relay.absorb(source.random_packet(&mut rng));
            let _ = sink.absorb(relay.random_packet(&mut rng));
            guard += 1;
            prop_assert!(guard < 64 * k + 64, "relaying must converge");
        }
        prop_assert_eq!(sink.decode().expect("complete"), payloads);
    }

    /// Hand-mixed packets match the field arithmetic: absorbing the
    /// explicit combination `sum_i w_i · packet_i` never corrupts the
    /// decoded payloads.
    #[test]
    fn explicit_mixtures_are_honest(
        k in 1usize..=8,
        weights in proptest::collection::vec(0u8..=255, 1..9),
    ) {
        let len = 5usize;
        let payloads = generation(k, len, 0x21);
        let mut coeffs = vec![0u8; k];
        let mut payload = vec![0u8; len];
        for (i, &w) in weights.iter().take(k).enumerate() {
            coeffs[i] = w;
            gf256::mul_add_slice(&mut payload, w, &payloads[i]);
        }
        let mut sink = CodedBasis::new(k, len);
        let innovative = sink.absorb(CodedPacket {
            coeffs: coeffs.clone(),
            payload,
        });
        prop_assert_eq!(innovative, coeffs.iter().any(|&c| c != 0),
            "a nonzero mixture into an empty basis is always innovative");
    }
}
