//! Random linear network coding over GF(2^8) (paper §6 made real).
//!
//! The content is a generation of `k` source packets, every
//! transmission is a random GF(2^8)-linear combination of the packets
//! its sender can already reproduce, and a receiver reconstructs the
//! generation as soon as it has collected `k` linearly *independent*
//! combinations. The coded analogue of a
//! [`TokenSet`](crate::TokenSet) is a [`CodedBasis`]: a rank-tracked
//! coefficient matrix with incremental Gaussian elimination, so
//! innovative-packet detection is a single reduction and decoding is
//! back-substitution once the rank reaches `k`.
//!
//! The payoff over replication is exactly the pathology the swarm
//! runtime measures as `duplicate_deliveries`: with uncoded blocks, a
//! lost or duplicated delivery wastes an arc-step *of a specific
//! block*, and the end-game degenerates into chasing the last missing
//! ones. With RLNC any innovative combination repairs any loss, so
//! duplicates can only arise from stale beliefs, never from two
//! senders racing the *same* block.
//!
//! # Determinism
//!
//! [`CodedBasis::random_packet`] draws one `u32` per stored basis row
//! (low byte used) in ascending pivot order, repeating only in the
//! all-zero case (probability `256^-rank`); given the same RNG state
//! and basis, the emitted packet is identical.

use crate::gf256;
use crate::{Instance, Token};
use ocd_graph::{DiGraph, NodeId};
use rand::RngCore;

/// One coded transmission: a coefficient vector over the generation and
/// the correspondingly mixed payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPacket {
    /// `coeffs[i]` multiplies source packet `i`; length is the
    /// generation size `k`.
    pub coeffs: Vec<u8>,
    /// The mixed payload, `sum_i coeffs[i] · payload_i`.
    pub payload: Vec<u8>,
}

impl CodedPacket {
    /// Wire size of the packet in bytes: the coefficient vector rides
    /// in the header, so coding pays `k` bytes of overhead per packet.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        (self.coeffs.len() + self.payload.len()) as u64
    }
}

/// A stored, reduced basis row: `coeffs` has a leading `1` at its pivot
/// column and zeros in every earlier pivot column.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    coeffs: Vec<u8>,
    payload: Vec<u8>,
}

/// The decoding state of one vertex: the row space of every packet it
/// has absorbed, kept in incrementally Gaussian-eliminated form.
///
/// `rows[j]`, when present, is the unique stored row whose pivot
/// (first nonzero coefficient) sits at column `j`, normalized to `1`.
/// Absorbing a packet reduces it against the stored rows in one pass;
/// a packet that reduces to zero is *not innovative* (it is already in
/// the span) and is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedBasis {
    k: usize,
    payload_len: usize,
    rows: Vec<Option<Row>>,
    rank: usize,
}

impl CodedBasis {
    /// An empty basis for a generation of `k` packets of
    /// `payload_len` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, payload_len: usize) -> Self {
        assert!(k > 0, "generation needs at least one packet");
        CodedBasis {
            k,
            payload_len,
            rows: vec![None; k],
            rank: 0,
        }
    }

    /// The full-rank basis of a source holding the original generation:
    /// identity coefficients over `payloads`.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is empty or its rows differ in length.
    #[must_use]
    pub fn source(payloads: &[Vec<u8>]) -> Self {
        let k = payloads.len();
        assert!(k > 0, "generation needs at least one packet");
        let payload_len = payloads[0].len();
        let rows = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                assert_eq!(p.len(), payload_len, "ragged generation payloads");
                let mut coeffs = vec![0u8; k];
                coeffs[i] = 1;
                Some(Row {
                    coeffs,
                    payload: p.clone(),
                })
            })
            .collect();
        CodedBasis {
            k,
            payload_len,
            rows,
            rank: k,
        }
    }

    /// Generation size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Payload bytes per packet.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Current rank: the number of linearly independent packets
    /// absorbed so far.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// How many more innovative packets are needed to decode.
    #[must_use]
    pub fn deficit(&self) -> usize {
        self.k - self.rank
    }

    /// Whether the generation is decodable (`rank == k`).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.rank == self.k
    }

    /// Absorbs a packet, returning `true` iff it was innovative (its
    /// coefficient vector was outside the current span and the rank
    /// grew by one).
    ///
    /// Elimination runs on the `k`-byte header first and leaves each
    /// stored row's multiplier in the column it cleared. Only a packet
    /// that proves innovative replays those multipliers on its payload,
    /// in the same order, so a redundant packet costs no payload work
    /// and an innovative one is stored with the same bytes as under
    /// eager elimination of header and payload together.
    ///
    /// # Panics
    ///
    /// Panics if the packet's dimensions do not match the basis.
    pub fn absorb(&mut self, mut packet: CodedPacket) -> bool {
        assert_eq!(packet.coeffs.len(), self.k, "coefficient length mismatch");
        assert_eq!(
            packet.payload.len(),
            self.payload_len,
            "payload length mismatch"
        );
        let Some(pivot) = eliminate(&mut packet.coeffs, |col| self.pivot_coeffs(col)) else {
            return false;
        };
        let (multipliers, tail) = packet.coeffs.split_at_mut(pivot);
        for (col, m) in multipliers.iter_mut().enumerate() {
            if *m != 0 {
                let row = self.rows[col]
                    .as_ref()
                    .expect("a multiplier marks a stored row");
                gf256::mul_add_slice(&mut packet.payload, *m, &row.payload);
                *m = 0;
            }
        }
        let inv = gf256::inv(tail[0]);
        gf256::mul_slice(tail, inv);
        gf256::mul_slice(&mut packet.payload, inv);
        self.rows[pivot] = Some(Row {
            coeffs: packet.coeffs,
            payload: packet.payload,
        });
        self.rank += 1;
        true
    }

    /// The coefficients of the stored row whose pivot is `col`.
    fn pivot_coeffs(&self, col: usize) -> Option<&[u8]> {
        self.rows[col].as_ref().map(|row| row.coeffs.as_slice())
    }

    /// Whether a packet with this coefficient vector would be
    /// innovative, without absorbing it.
    ///
    /// # Panics
    ///
    /// Panics on a coefficient-length mismatch.
    #[must_use]
    pub fn is_innovative(&self, coeffs: &[u8]) -> bool {
        assert_eq!(coeffs.len(), self.k, "coefficient length mismatch");
        eliminate(&mut coeffs.to_vec(), |col| self.pivot_coeffs(col)).is_some()
    }

    /// How many innovative packets `sender` could supply to this
    /// receiver: `rank(self ∪ sender) − rank(self)`. This is the coded
    /// analogue of the uncoded candidate count `|have(src) ∖
    /// have(dst)|`, and zero exactly when the sender's span is already
    /// contained in the receiver's.
    ///
    /// The answer is exact on every path. A full-rank sender supplies
    /// the whole [`deficit`](Self::deficit); an empty sender, or a
    /// complete receiver, supplies nothing. Otherwise the sender's rows
    /// are eliminated, header only, against the receiver's rows (read
    /// in place) and the new pivots found so far, stopping once
    /// `deficit` new pivots are found.
    ///
    /// # Panics
    ///
    /// Panics if the generation sizes differ.
    #[must_use]
    pub fn innovative_capacity_from(&self, sender: &CodedBasis) -> usize {
        assert_eq!(self.k, sender.k, "generation size mismatch");
        let deficit = self.deficit();
        if sender.is_complete() {
            return deficit;
        }
        if sender.rank == 0 || deficit == 0 {
            return 0;
        }
        let mut found: Vec<Option<Vec<u8>>> = vec![None; self.k];
        let mut gained = 0;
        for row in sender.rows.iter().flatten() {
            let mut c = row.coeffs.clone();
            let pivot = eliminate(&mut c, |col| {
                self.pivot_coeffs(col).or(found[col].as_deref())
            });
            if let Some(col) = pivot {
                // Zero the multipliers and normalize the pivot to 1, the
                // shape `eliminate` expects of every row it reads.
                c[..col].fill(0);
                let inv = gf256::inv(c[col]);
                gf256::mul_slice(&mut c[col..], inv);
                found[col] = Some(c);
                gained += 1;
                if gained == deficit {
                    break;
                }
            }
        }
        gained
    }

    /// Emits one fresh random combination of the stored rows (the RLNC
    /// relay rule: mix everything you can reproduce).
    ///
    /// Draws one `u32` per stored row in ascending pivot order, using
    /// the low byte; redraws only if every weight came up zero.
    ///
    /// # Panics
    ///
    /// Panics on an empty basis — a vertex with rank 0 has nothing to
    /// code from.
    #[must_use]
    pub fn random_packet(&self, rng: &mut dyn RngCore) -> CodedPacket {
        assert!(self.rank > 0, "cannot code from an empty basis");
        loop {
            let weights: Vec<u8> = self
                .rows
                .iter()
                .flatten()
                .map(|_| (rng.next_u32() & 0xFF) as u8)
                .collect();
            if weights.iter().all(|&w| w == 0) {
                continue;
            }
            let mut coeffs = vec![0u8; self.k];
            let mut payload = vec![0u8; self.payload_len];
            for (row, &w) in self.rows.iter().flatten().zip(&weights) {
                gf256::mul_add_slice(&mut coeffs, w, &row.coeffs);
                gf256::mul_add_slice(&mut payload, w, &row.payload);
            }
            return CodedPacket { coeffs, payload };
        }
    }

    /// Decodes the generation by back-substitution. `None` until the
    /// rank reaches `k`; afterwards returns the `k` original payloads
    /// in source order.
    #[must_use]
    pub fn decode(&self) -> Option<Vec<Vec<u8>>> {
        if self.rank < self.k {
            return None;
        }
        let mut rows: Vec<Row> = self
            .rows
            .iter()
            .map(|r| r.clone().expect("full rank stores every pivot"))
            .collect();
        for col in (0..self.k).rev() {
            let (above, below) = rows.split_at_mut(col);
            let pivot = &below[0];
            for r in above.iter_mut() {
                let f = r.coeffs[col];
                if f != 0 {
                    gf256::mul_add_slice(&mut r.coeffs, f, &pivot.coeffs);
                    gf256::mul_add_slice(&mut r.payload, f, &pivot.payload);
                }
            }
        }
        // Fully reduced: rows[i].coeffs is the i-th unit vector, so
        // rows[i].payload is source packet i.
        debug_assert!(rows.iter().enumerate().all(|(i, r)| r
            .coeffs
            .iter()
            .enumerate()
            .all(|(j, &c)| c == u8::from(i == j))));
        Some(rows.into_iter().map(|r| r.payload).collect())
    }
}

/// Eliminates the coefficient vector `coeffs` left to right against
/// the rows `pivot_row(col)` returns, each zero before `col` and `1` at
/// it. Returns the first column where `coeffs` is nonzero and no row
/// has its pivot (the vector is innovative there), or `None` if the
/// vector reduced to zero.
///
/// Subtracting `f ·` row clears column `col`, so the loop writes only
/// the columns after it and leaves `f` in column `col`: no later step
/// reads or writes a column before its own. On return every column
/// before the pivot therefore holds the multiplier its row was
/// subtracted with, or `0` where no row was used, which is what
/// [`CodedBasis::absorb`] replays on the payload.
fn eliminate<'a>(
    coeffs: &mut [u8],
    pivot_row: impl Fn(usize) -> Option<&'a [u8]>,
) -> Option<usize> {
    for col in 0..coeffs.len() {
        let f = coeffs[col];
        if f == 0 {
            continue;
        }
        let Some(row) = pivot_row(col) else {
            return Some(col);
        };
        gf256::mul_add_slice(&mut coeffs[col + 1..], f, &row[col + 1..]);
    }
    None
}

/// An RLNC distribution problem: one source holds a generation of `k`
/// real payloads; every receiver must collect `k` innovative
/// combinations and decode them back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlncInstance {
    graph: DiGraph,
    payloads: Vec<Vec<u8>>,
    receiver: Vec<bool>,
    source: NodeId,
}

impl RlncInstance {
    /// Single source at `source` holding a deterministic generation of
    /// `k` packets of `payload_len` bytes; every other vertex is a
    /// receiver. The payload bytes are a fixed mixing pattern so decode
    /// results are checkable without carrying the instance around.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `source` is out of bounds.
    #[must_use]
    pub fn single_source(graph: DiGraph, k: usize, payload_len: usize, source: usize) -> Self {
        assert!(k > 0, "generation needs at least one packet");
        let source = graph.node(source);
        let payloads = (0..k)
            .map(|i| {
                (0..payload_len)
                    .map(|j| (i.wrapping_mul(151) ^ j.wrapping_mul(31) ^ 0x5C) as u8)
                    .collect()
            })
            .collect();
        let mut receiver = vec![true; graph.node_count()];
        receiver[source.index()] = false;
        RlncInstance {
            graph,
            payloads,
            receiver,
            source,
        }
    }

    /// The overlay graph.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Generation size `k`.
    #[must_use]
    pub fn generation(&self) -> usize {
        self.payloads.len()
    }

    /// Payload bytes per packet.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payloads[0].len()
    }

    /// Wire bytes per coded packet: payload plus the `k`-byte
    /// coefficient header.
    #[must_use]
    pub fn packet_bytes(&self) -> u64 {
        (self.generation() + self.payload_len()) as u64
    }

    /// The source vertex.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Whether `v` must decode the generation.
    #[must_use]
    pub fn is_receiver(&self, v: NodeId) -> bool {
        self.receiver[v.index()]
    }

    /// The original generation payloads.
    #[must_use]
    pub fn payloads(&self) -> &[Vec<u8>] {
        &self.payloads
    }

    /// Per-vertex starting bases: the source's identity basis, empty
    /// everywhere else.
    #[must_use]
    pub fn initial_bases(&self) -> Vec<CodedBasis> {
        let k = self.generation();
        self.graph
            .nodes()
            .map(|v| {
                if v == self.source {
                    CodedBasis::source(&self.payloads)
                } else {
                    CodedBasis::new(k, self.payload_len())
                }
            })
            .collect()
    }

    /// Whether `basis` decodes to exactly this instance's generation.
    #[must_use]
    pub fn decodes_correctly(&self, basis: &CodedBasis) -> bool {
        basis.decode().is_some_and(|p| p == self.payloads)
    }

    /// The *slot instance*: an uncoded [`Instance`] over `k` tokens in
    /// which token `r` stands for "the `r`-th innovative packet a
    /// vertex absorbs". Coded provenance records each innovative
    /// delivery against its rank-slot token, so the standard
    /// [`ProvenanceTrace::analyze`](crate::ProvenanceTrace::analyze)
    /// machinery — critical path, per-arc bottleneck attribution,
    /// acquisition trees — applies verbatim: an arc's
    /// `first_deliveries` becomes the number of innovative packets it
    /// carried, and a receiver's lineage across all `k` slots is the
    /// set of arcs whose packets entered its decoding basis.
    ///
    /// # Panics
    ///
    /// Panics if the graph/want combination is rejected by the
    /// instance builder (cannot happen for a well-formed graph).
    #[must_use]
    pub fn slot_instance(&self) -> Instance {
        let k = self.generation();
        let mut builder = Instance::builder(self.graph.clone(), k)
            .have(self.source.index(), (0..k).map(Token::new));
        for v in self.graph.nodes() {
            if self.receiver[v.index()] {
                builder = builder.want(v.index(), (0..k).map(Token::new));
            }
        }
        builder.build().expect("slot instance is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    fn generation(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 7 + j * 13 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn source_basis_is_complete_and_decodes_identically() {
        let payloads = generation(4, 6);
        let basis = CodedBasis::source(&payloads);
        assert!(basis.is_complete());
        assert_eq!(basis.decode().unwrap(), payloads);
    }

    #[test]
    fn random_packets_fill_an_empty_basis_and_decode() {
        let payloads = generation(5, 9);
        let source = CodedBasis::source(&payloads);
        let mut sink = CodedBasis::new(5, 9);
        let mut rng = StdRng::seed_from_u64(42);
        let mut innovative = 0;
        while !sink.is_complete() {
            let p = source.random_packet(&mut rng);
            if sink.absorb(p) {
                innovative += 1;
            }
        }
        assert_eq!(innovative, 5, "rank grows exactly k times");
        assert_eq!(sink.decode().unwrap(), payloads);
    }

    #[test]
    fn duplicate_span_is_never_innovative() {
        let payloads = generation(3, 4);
        let source = CodedBasis::source(&payloads);
        let mut sink = CodedBasis::new(3, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let p = source.random_packet(&mut rng);
        assert!(sink.is_innovative(&p.coeffs));
        assert!(sink.absorb(p.clone()));
        // The identical combination, and any scaling of it, is now in
        // the span.
        assert!(!sink.is_innovative(&p.coeffs));
        assert!(!sink.absorb(p.clone()));
        let mut scaled = p;
        gf256::mul_slice(&mut scaled.coeffs, 0x35);
        gf256::mul_slice(&mut scaled.payload, 0x35);
        assert!(!sink.absorb(scaled));
        assert_eq!(sink.rank(), 1);
    }

    #[test]
    fn innovative_capacity_matches_rank_deficit() {
        let payloads = generation(4, 2);
        let source = CodedBasis::source(&payloads);
        let mut sink = CodedBasis::new(4, 2);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sink.innovative_capacity_from(&source), 4);
        while sink.rank() < 2 {
            let _ = sink.absorb(source.random_packet(&mut rng));
        }
        assert_eq!(sink.innovative_capacity_from(&source), 2);
        // A peer holding a subspace of the sink offers nothing.
        let mut peer = CodedBasis::new(4, 2);
        let _ = peer.absorb(sink.random_packet(&mut rng));
        assert_eq!(sink.innovative_capacity_from(&peer), 0);
        assert!(peer.innovative_capacity_from(&sink) > 0);
    }

    /// The eager elimination that header-first [`CodedBasis::absorb`]
    /// replaced, kept as its reference: header and payload reduced
    /// together, column by column.
    fn absorb_eager(basis: &mut CodedBasis, mut packet: CodedPacket) -> bool {
        for col in 0..basis.k {
            let c = packet.coeffs[col];
            if c == 0 {
                continue;
            }
            match &basis.rows[col] {
                Some(row) => {
                    gf256::mul_add_slice(&mut packet.coeffs, c, &row.coeffs);
                    gf256::mul_add_slice(&mut packet.payload, c, &row.payload);
                }
                None => {
                    let inv = gf256::inv(c);
                    gf256::mul_slice(&mut packet.coeffs, inv);
                    gf256::mul_slice(&mut packet.payload, inv);
                    basis.rows[col] = Some(Row {
                        coeffs: packet.coeffs,
                        payload: packet.payload,
                    });
                    basis.rank += 1;
                    return true;
                }
            }
        }
        false
    }

    /// `rank(receiver ∪ sender) − rank(receiver)` by brute force: each
    /// of the sender's stored rows absorbed into a clone of the
    /// receiver, the innovative ones counted.
    fn capacity_oracle(receiver: &CodedBasis, sender: &CodedBasis) -> usize {
        let mut union = receiver.clone();
        let mut gained = 0;
        for row in sender.rows.iter().flatten() {
            let packet = CodedPacket {
                coeffs: row.coeffs.clone(),
                payload: row.payload.clone(),
            };
            if union.absorb(packet) {
                gained += 1;
            }
        }
        gained
    }

    /// `count` random packets of `from` absorbed into `into`.
    fn feed(into: &mut CodedBasis, from: &CodedBasis, count: usize, rng: &mut StdRng) {
        for _ in 0..count {
            if from.rank() > 0 {
                let _ = into.absorb(from.random_packet(rng));
            }
        }
    }

    /// A packet with random coefficients, about half of them zero, and
    /// a random payload: it need not lie in any generation's span.
    fn arbitrary_packet(k: usize, len: usize, rng: &mut StdRng) -> CodedPacket {
        let mut byte = || (rng.next_u32() & 0xFF) as u8;
        CodedPacket {
            coeffs: (0..k)
                .map(|_| if byte() < 128 { 0 } else { byte() })
                .collect(),
            payload: (0..len).map(|_| byte()).collect(),
        }
    }

    proptest::proptest! {
        /// The fast paths and the early stop of
        /// `innovative_capacity_from` agree with the brute-force
        /// oracle for empty, partial, overlapping and full-rank
        /// senders, and for receivers of every rank up to complete.
        #[test]
        fn innovative_capacity_matches_brute_force(
            k in 1usize..=12,
            len in 0usize..=40,
            received in 0usize..=14,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let payloads: Vec<Vec<u8>> = (0..k)
                .map(|_| (0..len).map(|_| rng.next_u32() as u8).collect())
                .collect();
            let source = CodedBasis::source(&payloads);
            let mut receiver = CodedBasis::new(k, len);
            feed(&mut receiver, &source, received, &mut rng);
            let mut partial = CodedBasis::new(k, len);
            feed(&mut partial, &source, k / 2, &mut rng);
            // Overlapping: part of the receiver's span plus fresh rows.
            let mut overlapping = CodedBasis::new(k, len);
            feed(&mut overlapping, &receiver, k.div_ceil(2), &mut rng);
            feed(&mut overlapping, &source, k.div_ceil(2), &mut rng);
            // Full rank with a non-identity basis.
            let mut relay = CodedBasis::new(k, len);
            while !relay.is_complete() {
                let _ = relay.absorb(source.random_packet(&mut rng));
            }
            let senders = [
                ("empty", CodedBasis::new(k, len)),
                ("partial", partial),
                ("overlapping", overlapping),
                ("source", source.clone()),
                ("relay", relay),
                ("self", receiver.clone()),
            ];
            for (name, sender) in &senders {
                proptest::prop_assert_eq!(
                    receiver.innovative_capacity_from(sender),
                    capacity_oracle(&receiver, sender),
                    "sender {} (rank {}) into receiver of rank {}",
                    name,
                    sender.rank(),
                    receiver.rank()
                );
            }
        }

        /// Header-first `absorb` returns the same verdict and stores the
        /// same row bytes as the eager elimination it replaced, for
        /// innovative, redundant and arbitrary packets.
        #[test]
        fn header_first_absorb_matches_eager_elimination(
            k in 1usize..=12,
            len in 0usize..=70,
            received in 0usize..=14,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let payloads: Vec<Vec<u8>> = (0..k)
                .map(|_| (0..len).map(|_| rng.next_u32() as u8).collect())
                .collect();
            let source = CodedBasis::source(&payloads);
            let mut basis = CodedBasis::new(k, len);
            feed(&mut basis, &source, received, &mut rng);
            for round in 0..3 * k {
                let packet = match round % 3 {
                    0 => source.random_packet(&mut rng),
                    1 if basis.rank() > 0 => basis.random_packet(&mut rng),
                    _ => arbitrary_packet(k, len, &mut rng),
                };
                let mut eager = basis.clone();
                let expect = absorb_eager(&mut eager, packet.clone());
                proptest::prop_assert_eq!(basis.absorb(packet), expect, "round {}", round);
                proptest::prop_assert!(basis == eager, "stored rows differ in round {}", round);
            }
        }
    }

    #[test]
    fn instance_shape_and_slot_instance() {
        let inst = RlncInstance::single_source(classic::cycle(5, 2, true), 3, 8, 0);
        assert_eq!(inst.generation(), 3);
        assert_eq!(inst.packet_bytes(), 11);
        assert!(!inst.is_receiver(inst.graph().node(0)));
        assert!(inst.is_receiver(inst.graph().node(2)));
        let bases = inst.initial_bases();
        assert!(bases[0].is_complete());
        assert!(inst.decodes_correctly(&bases[0]));
        assert_eq!(bases[1].rank(), 0);
        let slots = inst.slot_instance();
        assert_eq!(slots.num_tokens(), 3);
        assert_eq!(slots.graph().node_count(), 5);
    }
}
