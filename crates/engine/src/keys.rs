//! The key index the hash operators share, and the hasher of every hash
//! container in the engine. A hash join's build side, an aggregate's groups
//! and a window's partitions each number the distinct key tuples they see,
//! in first-seen order, and then work with numbers.
//!
//! Keys are stored back to back in one vector, hashed with `Datum`'s
//! `Hash` through [`KeyHasher`] and compared with its container equality:
//! numerics across representations, `CHAR` padding ignored, NULL equal to
//! NULL. An operator hands each row's key over as a slice of values it
//! owns or borrows: a key already numbered costs no allocation and no
//! clone, and a new one is moved (or, when borrowed, cloned) into the
//! index.

use std::borrow::Borrow;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use hyperq_xtra::datum::Datum;

/// A multiply-mix hasher, one word at a time, with an fmix64 finalizer.
///
/// It is not seeded: every container that uses it numbers or keeps rows in
/// first-seen order, so no result depends on the order of hashes, and the
/// same key hashes alike in every statement. The finalizer spreads every
/// input bit over the low bits the tables mask with, so keys that differ
/// only in their high bits (a stride of 2^32 or 2^48) still spread out.
#[derive(Default)]
pub(crate) struct KeyHasher {
    hash: u64,
}

/// The engine's hash containers build their hashers with this.
pub(crate) type KeyState = BuildHasherDefault<KeyHasher>;

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0; 8];
            w.copy_from_slice(word);
            self.mix(u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The tail's length goes in the byte it leaves free, so "a" and
            // "a\0" differ.
            let mut w = [0; 8];
            w[..rest.len()].copy_from_slice(rest);
            w[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A key value an index takes in: an owned one is moved into the index
/// and a borrowed one cloned, each only when its key is new.
pub(crate) trait KeyValue: Borrow<Datum> {
    fn into_datum(self) -> Datum;
}

impl KeyValue for Datum {
    fn into_datum(self) -> Datum {
        self
    }
}

impl KeyValue for &Datum {
    fn into_datum(self) -> Datum {
        self.clone()
    }
}

fn hash_key<K: Borrow<Datum>>(key: &[K]) -> u64 {
    let mut h = KeyHasher::default();
    for d in key {
        d.borrow().hash(&mut h);
    }
    h.finish()
}

/// An empty slot of the table, and the number of no key.
pub(crate) const NO_KEY: usize = usize::MAX;

/// Distinct key tuples of one width, numbered 0, 1, 2, … in the order they
/// were first inserted.
pub(crate) struct KeyIndex {
    width: usize,
    /// Key `k` is `keys[k * width..(k + 1) * width]`.
    keys: Vec<Datum>,
    /// Key `k`'s hash.
    hashes: Vec<u64>,
    /// Open addressing with linear probing: each slot holds a key number or
    /// `NO_KEY`. Its length is a power of two, more than twice the keys.
    slots: Vec<usize>,
}

impl KeyIndex {
    pub fn new(width: usize) -> Self {
        KeyIndex {
            width,
            keys: Vec::new(),
            hashes: Vec::new(),
            slots: vec![NO_KEY; 16],
        }
    }

    /// The number of distinct keys.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    fn key(&self, k: usize) -> &[Datum] {
        &self.keys[k * self.width..(k + 1) * self.width]
    }

    /// The slot that holds `key`, or the empty slot where it would go.
    fn slot<K: Borrow<Datum>>(&self, key: &[K], hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            match self.slots[s] {
                NO_KEY => return s,
                k if self.hashes[k] == hash && self.key(k).iter().zip(key).all(|(a, b)| a == b.borrow()) => return s,
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The number of `key`, if it was inserted.
    pub fn find<K: Borrow<Datum>>(&self, key: &[K]) -> Option<usize> {
        match self.slots[self.slot(key, hash_key(key))] {
            NO_KEY => None,
            k => Some(k),
        }
    }

    /// The number of `key` and whether it is new. A new key is numbered
    /// next and its values are taken out of `key`, which is left empty.
    pub fn insert<K: KeyValue>(&mut self, key: &mut Vec<K>) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.width, "key of the wrong width");
        let hash = hash_key(key);
        let s = self.slot(key, hash);
        if self.slots[s] != NO_KEY {
            return (self.slots[s], false);
        }
        let k = self.len();
        self.slots[s] = k;
        self.hashes.push(hash);
        self.keys.extend(key.drain(..).map(KeyValue::into_datum));
        if 2 * self.len() >= self.slots.len() {
            self.grow();
        }
        (k, true)
    }

    fn grow(&mut self) {
        let mask = 2 * self.slots.len() - 1;
        self.slots = vec![NO_KEY; mask + 1];
        for (k, &hash) in self.hashes.iter().enumerate() {
            let mut s = hash as usize & mask;
            while self.slots[s] != NO_KEY {
                s = (s + 1) & mask;
            }
            self.slots[s] = k;
        }
    }

    /// The keys' values, key 0 first.
    pub fn into_values(self) -> Vec<Datum> {
        self.keys
    }
}

/// Row indices grouped by key number: each key's rows in ascending order.
pub(crate) struct Groups {
    /// Key `k`'s rows are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl Groups {
    /// Group `0..numbers.len()` by `numbers[i]`, a key number below `keys`
    /// or `NO_KEY` for a row in no group.
    pub fn new(numbers: &[usize], keys: usize) -> Groups {
        let mut starts = vec![0; keys + 1];
        for &k in numbers.iter().filter(|&&k| k != NO_KEY) {
            starts[k + 1] += 1;
        }
        for k in 0..keys {
            starts[k + 1] += starts[k];
        }
        let mut next = starts.clone();
        let mut rows = vec![0; starts[keys]];
        for (i, &k) in numbers.iter().enumerate().filter(|(_, &k)| k != NO_KEY) {
            rows[next[k]] = i;
            next[k] += 1;
        }
        Groups { starts, rows }
    }

    /// Key `k`'s rows; none for `NO_KEY`.
    pub fn get(&self, k: usize) -> &[usize] {
        match k {
            NO_KEY => &[],
            k => &self.rows[self.starts[k]..self.starts[k + 1]],
        }
    }

    /// Key `k`'s rows, to reorder in place.
    pub fn get_mut(&mut self, k: usize) -> &mut [usize] {
        &mut self.rows[self.starts[k]..self.starts[k + 1]]
    }
}

#[cfg(test)]
mod tests {
    use hyperq_xtra::datum::{Datum, Decimal};

    use super::{Groups, KeyIndex, NO_KEY};

    fn int(v: i64) -> Datum {
        Datum::Int(v)
    }

    /// The most slots a lookup can probe: the longest run of occupied
    /// slots, wrapping around the end.
    fn longest_run(index: &KeyIndex) -> usize {
        let slots = &index.slots;
        let Some(start) = slots.iter().position(|&k| k == NO_KEY) else {
            return slots.len();
        };
        let (mut longest, mut run) = (0, 0);
        for i in 1..=slots.len() {
            if slots[(start + i) % slots.len()] == NO_KEY {
                run = 0;
            } else {
                run += 1;
                longest = longest.max(run);
            }
        }
        longest
    }

    #[test]
    fn keys_are_numbered_in_first_seen_order_under_container_equality() {
        let mut index = KeyIndex::new(2);
        let dec = Datum::Dec(Decimal::parse("1.00").unwrap());
        let keys = [
            vec![int(1), Datum::str("a")],
            vec![int(2), Datum::str("a")],
            vec![dec.clone(), Datum::str("a  ")],
            vec![Datum::Null, Datum::str("b")],
            vec![Datum::Double(2.0), Datum::str("a")],
            vec![Datum::Null, Datum::str("b")],
        ];
        let numbers: Vec<(usize, bool)> = keys.iter().map(|k| index.insert(&mut k.clone())).collect();
        assert_eq!(numbers, [(0, true), (1, true), (0, false), (2, true), (1, false), (2, false)]);
        assert_eq!(index.find(&[dec, Datum::str("a")]), Some(0));
        assert_eq!(index.find(&[int(3), Datum::str("a")]), None);
        assert_eq!(
            index.into_values(),
            [int(1), Datum::str("a"), int(2), Datum::str("a"), Datum::Null, Datum::str("b")]
        );
    }

    #[test]
    fn a_new_key_is_moved_out_and_an_old_one_left_in_place() {
        let mut index = KeyIndex::new(1);
        let mut key = vec![int(7)];
        assert_eq!(index.insert(&mut key), (0, true));
        assert!(key.is_empty());
        key.push(int(7));
        assert_eq!(index.insert(&mut key), (0, false));
        assert_eq!(key, [int(7)]);
    }

    #[test]
    fn the_table_grows_past_many_keys_and_zero_width_keys_are_one_key() {
        let mut index = KeyIndex::new(1);
        for round in 0..2 {
            for v in 0..10_000 {
                assert_eq!(index.insert(&mut vec![int(v)]), (v as usize, round == 0));
            }
        }
        assert_eq!(index.len(), 10_000);
        assert_eq!(index.find(&[int(9_999)]), Some(9_999));
        let mut empty = KeyIndex::new(0);
        assert_eq!(empty.insert(&mut Vec::<Datum>::new()), (0, true));
        assert_eq!(empty.insert(&mut Vec::<Datum>::new()), (0, false));
    }

    #[test]
    fn integer_keys_at_wide_strides_keep_their_numbers_and_short_probes() {
        // Keys that differ only in high bits share the low bits a slot is
        // picked by, unless the hash mixes the high bits down. 100k keys 2^48
        // apart do not all fit an i64: those past it are DECIMAL(38,0) keys,
        // which hash and compare like INTEGERs of the same value.
        let key = |v: i128| match i64::try_from(v) {
            Ok(v) => int(v),
            Err(_) => Datum::Dec(Decimal::new(v, 0)),
        };
        for stride in [1, 1 << 32, 1 << 48] {
            let mut index = KeyIndex::new(1);
            for v in 0..100_000 {
                assert_eq!(index.insert(&mut vec![key(v * stride)]), (v as usize, true), "stride {stride}");
            }
            for v in (0..100_000).rev() {
                assert_eq!(index.find(&[&key(v * stride)]), Some(v as usize), "stride {stride}");
            }
            let run = longest_run(&index);
            assert!(run <= 64, "stride {stride}: a lookup can probe {run} slots");
        }
    }

    #[test]
    fn groups_list_each_keys_rows_in_order_and_skip_rows_without_a_key() {
        let groups = Groups::new(&[1, NO_KEY, 0, 1, 2, 0, 1], 4);
        assert_eq!(groups.get(0), [2, 5]);
        assert_eq!(groups.get(1), [0, 3, 6]);
        assert_eq!(groups.get(2), [4]);
        assert_eq!(groups.get(3), [] as [usize; 0]);
        assert_eq!(groups.get(NO_KEY), [] as [usize; 0]);
    }
}
