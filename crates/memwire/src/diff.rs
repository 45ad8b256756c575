//! Twin/diff write detection.
//!
//! The software DSM detects modifications the TreadMarks/JiaJia way: the
//! first write to a page in an interval snapshots a pristine *twin*; at a
//! release point the current page is compared against the twin and the
//! changed byte runs are encoded as a *diff*, which is shipped to the
//! page's home and applied there. Diffs from different writers to
//! disjoint parts of a page merge cleanly (the usual false-sharing
//! remedy of multiple-writer protocols).
//!
//! # Encoding
//!
//! A [`Diff`] is flat: one table of `(offset, len)` runs plus one buffer
//! holding every run's new bytes back to back, so encoding a page costs
//! two growable buffers however many runs it has. Runs are byte-exact
//! and maximal (each is a stretch of changed bytes bounded by unchanged
//! bytes or the page edges), which is what a byte-by-byte comparison
//! yields. [`Diff::between`] finds them a `u64` word at a time: equal
//! words are skipped with one compare, and inside a changed word the run
//! boundaries come from a per-byte change mask. The modelled wire size,
//! [`Diff::wire_bytes`], depends only on the run list, so it is the same
//! as for any other encoding of the same runs.

use crate::addr::PAGE_SIZE;

/// One bit (the low bit of each byte lane) per byte of a `u64`.
const LANES: u64 = 0x0101_0101_0101_0101;

/// The encoded difference between a twin and the current page contents.
///
/// ```
/// use memwire::{Diff, PAGE_SIZE};
/// let twin = vec![0u8; PAGE_SIZE];
/// let mut page = twin.clone();
/// page[100..108].copy_from_slice(&0x0102030405060708u64.to_le_bytes());
/// let diff = Diff::between(&twin, &page);
/// assert_eq!(diff.changed_bytes(), 8);
///
/// let mut home = twin.clone();
/// diff.apply(&mut home);
/// assert_eq!(home, page);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// `(offset, len)` of each changed run, in ascending offset order.
    runs: Vec<(u16, u16)>,
    /// The new bytes of every run, concatenated in run order.
    bytes: Vec<u8>,
}

impl Diff {
    /// Compare `current` against its pristine `twin` and encode the
    /// changed runs. Both slices must be exactly one page.
    pub fn between(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        let mut diff = Self::default();
        // Start offset of the run still open at the current word, if any.
        let mut open: Option<usize> = None;
        let words = twin.chunks_exact(8).zip(current.chunks_exact(8));
        for (w, (t, c)) in words.enumerate() {
            let x = word(t) ^ word(c);
            let base = 8 * w;
            if x == 0 {
                if let Some(start) = open.take() {
                    diff.push_run(start, base, current);
                }
                continue;
            }
            let changed = changed_lanes(x);
            let unchanged = !changed & LANES;
            let mut lane = 0;
            while lane < 8 {
                match open {
                    Some(start) => {
                        lane += next_lane(unchanged, lane);
                        if lane < 8 {
                            diff.push_run(start, base + lane, current);
                            open = None;
                        }
                    }
                    None => {
                        lane += next_lane(changed, lane);
                        if lane < 8 {
                            open = Some(base + lane);
                        }
                    }
                }
            }
        }
        if let Some(start) = open {
            diff.push_run(start, PAGE_SIZE, current);
        }
        diff
    }

    fn push_run(&mut self, start: usize, end: usize, current: &[u8]) {
        self.runs.push((start as u16, (end - start) as u16));
        self.bytes.extend_from_slice(&current[start..end]);
    }

    /// The changed runs as `(offset, new bytes)`, in ascending offset
    /// order.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let mut at = 0;
        self.runs.iter().map(move |&(offset, len)| {
            let bytes = &self.bytes[at..at + len as usize];
            at += len as usize;
            (offset as usize, bytes)
        })
    }

    /// Apply this diff to `page` (the home copy).
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        for (offset, bytes) in self.runs() {
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total count of changed bytes.
    pub fn changed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Size of this diff on the wire: 4 bytes of header per run plus the
    /// payload bytes (matches the JiaJia encoding granularity).
    pub fn wire_bytes(&self) -> u64 {
        4 * self.runs.len() as u64 + self.bytes.len() as u64 + 8
    }
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// The low bit of byte lane `i` is set iff byte `i` of `x` is non-zero.
fn changed_lanes(x: u64) -> u64 {
    let x = x | (x >> 4);
    let x = x | (x >> 2);
    (x | (x >> 1)) & LANES
}

/// Lanes from `lane` up to the first lane set in `mask` (`8 - lane` if
/// none is).
fn next_lane(mask: u64, lane: usize) -> usize {
    ((mask >> (8 * lane)).trailing_zeros() / 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    fn runs(d: &Diff) -> Vec<(usize, Vec<u8>)> {
        d.runs().map(|(o, b)| (o, b.to_vec())).collect()
    }

    #[test]
    fn identical_pages_give_empty_diff() {
        let twin = page_of(0);
        let d = Diff::between(&twin, &twin);
        assert!(d.is_empty());
        assert_eq!(d.changed_bytes(), 0);
    }

    #[test]
    fn single_run_encoded() {
        let twin = page_of(0);
        let mut cur = twin.clone();
        cur[100..110].fill(7);
        let d = Diff::between(&twin, &cur);
        assert_eq!(runs(&d), vec![(100, vec![7; 10])]);
    }

    #[test]
    fn runs_are_byte_exact_inside_a_word() {
        let twin = page_of(0);
        let mut cur = twin.clone();
        // Lanes 1, 3-4 and 7 of word 2, then lane 0 of word 3: the last
        // two join across the word boundary.
        for i in [17, 19, 20, 23, 24] {
            cur[i] = 1;
        }
        let d = Diff::between(&twin, &cur);
        assert_eq!(runs(&d), vec![(17, vec![1]), (19, vec![1, 1]), (23, vec![1, 1])]);
    }

    #[test]
    fn apply_reconstructs_current() {
        let twin = page_of(1);
        let mut cur = twin.clone();
        cur[0] = 9;
        cur[4095] = 9;
        cur[2000..2100].fill(3);
        let d = Diff::between(&twin, &cur);
        let mut home = twin.clone();
        d.apply(&mut home);
        assert_eq!(home, cur);
    }

    #[test]
    fn disjoint_diffs_merge() {
        // Two writers modify disjoint halves of the same page; applying
        // both diffs to the home must preserve both sets of writes
        // (multiple-writer protocol invariant).
        let twin = page_of(0);
        let mut a = twin.clone();
        a[..100].fill(1);
        let mut b = twin.clone();
        b[200..300].fill(2);
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        let mut home = twin.clone();
        da.apply(&mut home);
        db.apply(&mut home);
        assert!(home[..100].iter().all(|&x| x == 1));
        assert!(home[200..300].iter().all(|&x| x == 2));
        assert!(home[100..200].iter().all(|&x| x == 0));
    }

    #[test]
    fn wire_bytes_tracks_payload() {
        let twin = page_of(0);
        let mut cur = twin.clone();
        cur[0..8].fill(5);
        let d = Diff::between(&twin, &cur);
        assert_eq!(d.wire_bytes(), 8 + 4 + 8);
    }

    #[test]
    fn whole_page_is_one_run() {
        let d = Diff::between(&page_of(0), &page_of(1));
        assert_eq!(runs(&d), vec![(0, page_of(1))]);
        assert_eq!(d.wire_bytes(), 8 + 4 + PAGE_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "one page")]
    fn wrong_size_rejected() {
        let _ = Diff::between(&[0u8; 10], &[0u8; 10]);
    }
}
