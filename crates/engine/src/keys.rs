//! The key index the hash operators share. A hash join's build side, an
//! aggregate's groups and a window's partitions each number the distinct
//! key tuples they see, in first-seen order, and then work with numbers.
//!
//! Keys are stored back to back in one vector, hashed with `Datum`'s
//! `Hash` and compared with its container equality: numerics across
//! representations, `CHAR` padding ignored, NULL equal to NULL. An
//! operator evaluates each row's key into one scratch vector it reuses: a
//! key already numbered costs no allocation, and a new one is moved into
//! the index.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use hyperq_xtra::datum::Datum;

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
    state: RandomState,
}

impl KeyIndex {
    pub fn new(width: usize) -> Self {
        KeyIndex {
            width,
            keys: Vec::new(),
            hashes: Vec::new(),
            slots: vec![NO_KEY; 16],
            state: RandomState::new(),
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
    fn slot(&self, key: &[Datum], hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            match self.slots[s] {
                NO_KEY => return s,
                k if self.hashes[k] == hash && self.key(k) == key => return s,
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The number of `key`, if it was inserted.
    pub fn find(&self, key: &[Datum]) -> Option<usize> {
        match self.slots[self.slot(key, self.state.hash_one(key))] {
            NO_KEY => None,
            k => Some(k),
        }
    }

    /// The number of `key` and whether it is new. A new key is numbered
    /// next and its values are moved out of `key`, which is left empty.
    pub fn insert(&mut self, key: &mut Vec<Datum>) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.width, "key of the wrong width");
        let hash = self.state.hash_one(key.as_slice());
        let s = self.slot(key, hash);
        if self.slots[s] != NO_KEY {
            return (self.slots[s], false);
        }
        let k = self.len();
        self.slots[s] = k;
        self.hashes.push(hash);
        self.keys.append(key);
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
        assert_eq!(empty.insert(&mut vec![]), (0, true));
        assert_eq!(empty.insert(&mut vec![]), (0, false));
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
