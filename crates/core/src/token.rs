//! Tokens and dense token sets.
//!
//! The paper assumes "all content is in the form of unit-sized tokens;
//! files can be represented as sets of tokens" (§3). Token universes in
//! the paper's experiments are small (≤ 512), while set operations
//! (union, difference, counting) dominate the simulator's inner loop —
//! hence a dense bitset with word-parallel operations. A set over at
//! most 128 tokens keeps its two words inside the struct, so creating,
//! cloning and dropping it never touches the heap; larger universes box
//! their words.

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A unit-sized piece of content, identified by a dense index within its
/// instance's token universe.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Token(u32);

impl Token {
    /// Creates a token with the given index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Token(u32::try_from(index).expect("token index exceeds u32::MAX"))
    }

    /// Returns the raw index of this token.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

const BITS: usize = 64;

/// Words a set stores inline; a universe needing more is boxed. Two
/// words make the inline form exactly as large as the boxed one.
const INLINE_WORDS: usize = 2;

/// A set's bitset words: exactly `universe.div_ceil(64)` of them, inline
/// when they fit in [`INLINE_WORDS`], boxed otherwise. The universe alone
/// picks the variant, and inline words past the live ones stay zero, so
/// the derived `PartialEq`, `Eq` and `Hash` compare sets by their members.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Blocks {
    /// The words and how many of them are live.
    Inline([u64; INLINE_WORDS], u8),
    Heap(Box<[u64]>),
}

impl Blocks {
    fn zeroed(words: usize) -> Self {
        if words <= INLINE_WORDS {
            Blocks::Inline([0; INLINE_WORDS], words as u8)
        } else {
            Blocks::Heap(vec![0; words].into_boxed_slice())
        }
    }
}

impl Deref for Blocks {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Blocks::Inline(words, live) => &words[..usize::from(*live)],
            Blocks::Heap(words) => words,
        }
    }
}

impl DerefMut for Blocks {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Blocks::Inline(words, live) => &mut words[..usize::from(*live)],
            Blocks::Heap(words) => words,
        }
    }
}

/// A set of [`Token`]s drawn from a fixed universe `0..universe`,
/// represented as a dense bitset. Its words live inline for universes of
/// up to 128 tokens and on the heap beyond that; both forms take 32
/// bytes.
///
/// All sets participating in one operation must share the same universe
/// size; binary operations panic otherwise, catching instance mix-ups
/// early.
///
/// # Examples
///
/// ```
/// use ocd_core::{Token, TokenSet};
///
/// let mut a = TokenSet::new(10);
/// a.insert(Token::new(3));
/// a.insert(Token::new(7));
/// let b = TokenSet::from_tokens(10, [Token::new(7), Token::new(9)]);
/// assert_eq!(a.union(&b).len(), 3);
/// assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![Token::new(3)]);
/// assert!(a.intersects(&b));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TokenSet {
    universe: u32,
    blocks: Blocks,
}

const _: () = assert!(std::mem::size_of::<TokenSet>() == 32);

impl TokenSet {
    /// Creates an empty set over `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        TokenSet {
            universe: u32::try_from(universe).expect("universe exceeds u32::MAX"),
            blocks: Blocks::zeroed(universe.div_ceil(BITS)),
        }
    }

    /// Creates the full set `{0, …, universe-1}`.
    #[must_use]
    pub fn full(universe: usize) -> Self {
        let mut set = TokenSet::new(universe);
        for block in set.blocks.iter_mut() {
            *block = u64::MAX;
        }
        set.clear_excess();
        set
    }

    /// Creates a set over `0..universe` containing the given tokens.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the universe.
    #[must_use]
    pub fn from_tokens(universe: usize, tokens: impl IntoIterator<Item = Token>) -> Self {
        let mut set = TokenSet::new(universe);
        for t in tokens {
            set.insert(t);
        }
        set
    }

    /// Creates the contiguous range `lo..hi` as a set (used for files:
    /// "files can be represented as sets of tokens").
    ///
    /// # Panics
    ///
    /// Panics if `hi > universe` or `lo > hi`.
    #[must_use]
    pub fn from_range(universe: usize, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= universe,
            "range {range:?} invalid for universe {universe}"
        );
        let mut set = TokenSet::new(universe);
        for i in range {
            set.insert(Token::new(i));
        }
        set
    }

    fn clear_excess(&mut self) {
        let u = self.universe as usize;
        if !u.is_multiple_of(BITS) {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << (u % BITS)) - 1;
            }
        }
    }

    /// Size of the universe this set draws from.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Number of tokens in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Whether the set equals the whole universe.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len() == self.universe()
    }

    /// Whether `token` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the universe.
    #[must_use]
    pub fn contains(&self, token: Token) -> bool {
        self.check(token);
        self.blocks[token.index() / BITS] & (1 << (token.index() % BITS)) != 0
    }

    fn check(&self, token: Token) {
        assert!(
            token.index() < self.universe(),
            "token {token} outside universe of size {}",
            self.universe
        );
    }

    /// Inserts `token`. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the universe.
    pub fn insert(&mut self, token: Token) -> bool {
        self.check(token);
        let (block, bit) = (token.index() / BITS, 1u64 << (token.index() % BITS));
        let added = self.blocks[block] & bit == 0;
        self.blocks[block] |= bit;
        added
    }

    /// Removes `token`. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the universe.
    pub fn remove(&mut self, token: Token) -> bool {
        self.check(token);
        let (block, bit) = (token.index() / BITS, 1u64 << (token.index() % BITS));
        let removed = self.blocks[block] & bit != 0;
        self.blocks[block] &= !bit;
        removed
    }

    fn check_same_universe(&self, other: &TokenSet) {
        assert_eq!(
            self.universe, other.universe,
            "token sets from different universes ({} vs {})",
            self.universe, other.universe
        );
    }

    /// In-place union: `self ∪= other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &TokenSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &TokenSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a &= b;
        }
    }

    /// In-place difference: `self \= other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn subtract(&mut self, other: &TokenSet) {
        self.check_same_universe(other);
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a &= !b;
        }
    }

    /// Returns `self ∪ other`.
    #[must_use]
    pub fn union(&self, other: &TokenSet) -> TokenSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `self ∩ other`.
    #[must_use]
    pub fn intersection(&self, other: &TokenSet) -> TokenSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &TokenSet) -> TokenSet {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Whether every token of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn is_subset(&self, other: &TokenSet) -> bool {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether the sets share at least one token.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersects(&self, other: &TokenSet) -> bool {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of tokens in `self \ other` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn difference_len(&self, other: &TokenSet) -> usize {
        self.check_same_universe(other);
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Removes all tokens.
    pub fn clear(&mut self) {
        for b in self.blocks.iter_mut() {
            *b = 0;
        }
    }

    /// Overwrites `self` with the contents of `other` without
    /// allocating — the backbone of scratch-buffer reuse in the
    /// simulation hot path (the derived `clone_from` clones, which
    /// allocates for a boxed set).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &TokenSet) {
        self.check_same_universe(other);
        self.blocks.copy_from_slice(&other.blocks);
    }

    /// Iterates over the tokens in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// The smallest token in the set, if any.
    #[must_use]
    pub fn first(&self) -> Option<Token> {
        self.iter().next()
    }

    /// The smallest token with index ≥ `from.index()`, wrapping around to
    /// the start of the universe if none — the lookup a circular
    /// round-robin queue needs. Returns `None` on the empty set.
    #[must_use]
    pub fn next_cyclic(&self, from: Token) -> Option<Token> {
        let start = from.index().min(self.universe());
        // Word-level scan from `start` to the end: mask off the bits
        // below `start` in its block, then let `trailing_zeros` find
        // the next member 64 tokens at a time.
        if start < self.universe() {
            let first_block = start / BITS;
            let mut masked = self.blocks[first_block] & (!0u64 << (start % BITS));
            let mut block = first_block;
            loop {
                if masked != 0 {
                    return Some(Token::new(block * BITS + masked.trailing_zeros() as usize));
                }
                block += 1;
                if block >= self.blocks.len() {
                    break;
                }
                masked = self.blocks[block];
            }
        }
        // Wrap to the smallest member (None on the empty set).
        self.first()
    }

    /// Keeps only the first `n` tokens (ascending), dropping the rest.
    /// Used to clip a candidate send down to arc capacity.
    pub fn truncate(&mut self, n: usize) {
        let mut seen = 0usize;
        for block in self.blocks.iter_mut() {
            let ones = block.count_ones() as usize;
            if seen + ones <= n {
                seen += ones;
                continue;
            }
            // Keep only the first (n - seen) ones in this block.
            let mut keep = n.saturating_sub(seen);
            let mut new_block = 0u64;
            let mut bits = *block;
            while keep > 0 && bits != 0 {
                let low = bits & bits.wrapping_neg();
                new_block |= low;
                bits ^= low;
                keep -= 1;
            }
            *block = new_block;
            seen = n;
        }
    }
}

/// Iterator over the tokens of a [`TokenSet`] in ascending order.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a TokenSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(Token::new(self.block * BITS + bit));
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

impl<'a> IntoIterator for &'a TokenSet {
    type Item = Token;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for TokenSet {
    /// Renders as `{t0, t3, t7}/10` (members / universe size).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, "}}/{}", self.universe)
    }
}

impl Serialize for TokenSet {
    /// Writes `{"universe": u, "tokens": [members, ascending]}`.
    fn serialize<S: Serializer + ?Sized>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.begin_map()?;
        serializer.serialize_field("universe", &self.universe)?;
        serializer.serialize_key("tokens")?;
        serializer.collect_seq(self.iter().map(|t| t.0))?;
        serializer.end_map()
    }
}

impl<'de> Deserialize<'de> for TokenSet {
    /// Reads what [`TokenSet::serialize`] writes, under the derived
    /// impls' rules: keys in any order, a repeated key's last value
    /// wins, unknown keys are skipped. A member is an error if it lies
    /// outside the final universe, or outside a universe read before it:
    /// when `universe` comes first, as the writer puts it, members go
    /// straight into the set and a hostile one fails as it is read.
    /// Members read before any universe wait as plain `u32`s, so a large
    /// one costs four bytes, not a bitset reaching up to it.
    fn deserialize<D: Deserializer<'de> + ?Sized>(deserializer: &mut D) -> Result<Self, D::Error> {
        let (mut universe, mut members) = (None, None);
        deserializer.begin_map()?;
        while let Some(key) = deserializer.next_key()? {
            match key {
                "universe" => universe = Some(u32::deserialize(deserializer)?),
                "tokens" => members = Some(read_members(deserializer, universe)?),
                _ => deserializer.skip_value()?,
            }
        }
        let universe = serde::de::finish_field::<_, D::Error>(universe, "TokenSet", "universe")?;
        let members = match members {
            Some(Members::Set(set)) if set.universe == universe => return Ok(set),
            Some(Members::Set(set)) => set.iter().map(|t| t.0).collect(),
            Some(Members::Pending(list)) => list,
            None => {
                return Err(serde::de::Error::custom(
                    "missing field `tokens` of struct TokenSet",
                ))
            }
        };
        if let Some(&t) = members.iter().filter(|&&t| t >= universe).min() {
            return Err(outside_universe(t, universe));
        }
        Ok(TokenSet::from_tokens(
            universe as usize,
            members.into_iter().map(Token),
        ))
    }
}

/// A `tokens` array as read: a set over the universe read before it, or
/// the bare members when none was.
enum Members {
    Set(TokenSet),
    Pending(Vec<u32>),
}

/// Reads a `tokens` array. Against a known `universe`, a member outside
/// it is an error as soon as it is read.
fn read_members<'de, D: Deserializer<'de> + ?Sized>(
    deserializer: &mut D,
    universe: Option<u32>,
) -> Result<Members, D::Error> {
    let mut members = match universe {
        Some(u) => Members::Set(TokenSet::new(u as usize)),
        None => Members::Pending(Vec::new()),
    };
    deserializer.begin_seq()?;
    while deserializer.next_element()? {
        let t = u32::deserialize(deserializer)?;
        match &mut members {
            Members::Set(set) if t >= set.universe => {
                return Err(outside_universe(t, set.universe))
            }
            Members::Set(set) => {
                set.insert(Token(t));
            }
            Members::Pending(list) => list.push(t),
        }
    }
    Ok(members)
}

fn outside_universe<E: serde::de::Error>(t: u32, universe: u32) -> E {
    E::custom(format_args!(
        "token {t} outside universe of size {universe}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = TokenSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = TokenSet::full(70);
        assert!(f.is_full());
        assert_eq!(f.len(), 70);
        assert!(f.contains(Token::new(69)));
        // Excess bits beyond the universe must be clear.
        assert_eq!(f.iter().count(), 70);
    }

    #[test]
    fn zero_universe() {
        let s = TokenSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_full(), "the empty universe's empty set is also full");
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.next_cyclic(Token::new(0)), None);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = TokenSet::new(100);
        assert!(s.insert(Token::new(64)));
        assert!(!s.insert(Token::new(64)), "second insert reports not-new");
        assert!(s.contains(Token::new(64)));
        assert!(!s.contains(Token::new(63)));
        assert!(s.remove(Token::new(64)));
        assert!(!s.remove(Token::new(64)));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_panics() {
        let s = TokenSet::new(5);
        let _ = s.contains(Token::new(5));
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mixed_universe_panics() {
        let a = TokenSet::new(5);
        let b = TokenSet::new(6);
        let _ = a.is_subset(&b);
    }

    #[test]
    fn set_algebra() {
        let a = TokenSet::from_tokens(10, [Token::new(1), Token::new(3), Token::new(5)]);
        let b = TokenSet::from_tokens(10, [Token::new(3), Token::new(6)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 2);
        assert_eq!(a.difference_len(&b), 2);
        assert_eq!(b.difference_len(&a), 1);
        assert!(a.intersects(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(a.difference(&b).is_subset(&a));
    }

    #[test]
    fn from_range_builds_files() {
        let f = TokenSet::from_range(512, 256..384);
        assert_eq!(f.len(), 128);
        assert!(f.contains(Token::new(256)));
        assert!(f.contains(Token::new(383)));
        assert!(!f.contains(Token::new(255)));
        assert!(!f.contains(Token::new(384)));
        let empty = TokenSet::from_range(10, 4..4);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid for universe")]
    fn bad_range_panics() {
        let _ = TokenSet::from_range(10, 5..11);
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let tokens = [0usize, 1, 63, 64, 65, 127, 128, 199];
        let s = TokenSet::from_tokens(200, tokens.iter().map(|&i| Token::new(i)));
        let got: Vec<usize> = s.iter().map(Token::index).collect();
        assert_eq!(got, tokens);
        assert_eq!(s.first(), Some(Token::new(0)));
    }

    #[test]
    fn next_cyclic_wraps() {
        let s = TokenSet::from_tokens(10, [Token::new(2), Token::new(7)]);
        assert_eq!(s.next_cyclic(Token::new(0)), Some(Token::new(2)));
        assert_eq!(s.next_cyclic(Token::new(2)), Some(Token::new(2)));
        assert_eq!(s.next_cyclic(Token::new(3)), Some(Token::new(7)));
        assert_eq!(s.next_cyclic(Token::new(8)), Some(Token::new(2)), "wraps");
    }

    #[test]
    fn next_cyclic_matches_linear_scan_on_512_universe() {
        // Regression for the word-level rewrite: sparse members spread
        // across all 8 blocks of a 512-token universe, probed from
        // every position including block boundaries and the wrap.
        let members = [0usize, 63, 64, 127, 200, 311, 448, 511];
        let s = TokenSet::from_tokens(512, members.iter().map(|&i| Token::new(i)));
        let oracle = |from: usize| {
            (from..512)
                .chain(0..512)
                .map(Token::new)
                .find(|&t| s.contains(t))
        };
        for from in 0..512 {
            assert_eq!(s.next_cyclic(Token::new(from)), oracle(from), "from {from}");
        }
        // `from == universe` is allowed and wraps to the first member.
        assert_eq!(s.next_cyclic(Token::new(512)), Some(Token::new(0)));
        // Empty and singleton sets.
        assert_eq!(TokenSet::new(512).next_cyclic(Token::new(17)), None);
        let single = TokenSet::from_tokens(512, [Token::new(300)]);
        assert_eq!(single.next_cyclic(Token::new(301)), Some(Token::new(300)));
        assert_eq!(single.next_cyclic(Token::new(300)), Some(Token::new(300)));
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let src = TokenSet::from_tokens(130, [Token::new(1), Token::new(64), Token::new(129)]);
        let mut dst = TokenSet::from_tokens(130, [Token::new(0), Token::new(99)]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn copy_from_rejects_universe_mismatch() {
        let src = TokenSet::new(10);
        let mut dst = TokenSet::new(11);
        dst.copy_from(&src);
    }

    #[test]
    fn truncate_keeps_lowest() {
        let mut s = TokenSet::from_tokens(200, (0..150).map(Token::new));
        s.truncate(70);
        assert_eq!(s.len(), 70);
        assert_eq!(
            s.iter().map(Token::index).collect::<Vec<_>>(),
            (0..70).collect::<Vec<_>>()
        );
        let mut t = TokenSet::from_tokens(10, [Token::new(9)]);
        t.truncate(5);
        assert_eq!(t.len(), 1);
        t.truncate(0);
        assert!(t.is_empty());
    }

    #[test]
    fn debug_format() {
        let s = TokenSet::from_tokens(5, [Token::new(0), Token::new(4)]);
        assert_eq!(format!("{s:?}"), "{t0, t4}/5");
    }

    #[test]
    fn serde_round_trip() {
        let s = TokenSet::from_tokens(100, [Token::new(0), Token::new(64), Token::new(99)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: TokenSet = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn serde_rejects_out_of_universe() {
        let bad = r#"{"universe": 5, "tokens": [7]}"#;
        assert!(serde_json::from_str::<TokenSet>(bad).is_err());
    }

    #[test]
    fn serde_reads_keys_in_any_order() {
        let expected = TokenSet::from_tokens(130, [Token(0), Token(64), Token(129)]);
        for json in [
            r#"{"universe": 130, "tokens": [129, 0, 64]}"#,
            r#"{"tokens": [129, 0, 64], "universe": 130}"#,
            r#"{"tokens": [1], "extra": [{}], "tokens": [0, 129, 64], "universe": 2, "universe": 130}"#,
            r#"{"universe": 255, "tokens": [64, 129, 0], "universe": 130}"#,
        ] {
            assert_eq!(
                serde_json::from_str::<TokenSet>(json).unwrap(),
                expected,
                "{json}"
            );
        }
        for (json, message) in [
            (
                r#"{"universe": 3, "tokens": [1, 5, 4]}"#,
                "token 5 outside universe of size 3",
            ),
            (
                r#"{"tokens": [1, 200, 70], "universe": 64}"#,
                "token 70 outside universe of size 64",
            ),
            (
                r#"{"universe": 255, "tokens": [200, 131], "universe": 130}"#,
                "token 131 outside universe of size 130",
            ),
            (
                r#"{"tokens": []}"#,
                "missing field `universe` of struct TokenSet",
            ),
            (
                r#"{"universe": 3}"#,
                "missing field `tokens` of struct TokenSet",
            ),
        ] {
            let err = serde_json::from_str::<TokenSet>(json)
                .unwrap_err()
                .to_string();
            assert_eq!(err, message, "{json}");
        }
    }
}
