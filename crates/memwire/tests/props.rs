//! Property-based tests for the memory substrate's invariants.

use memwire::{Arena, Diff, Distribution, GlobalAddr, Interval, PageId, PAGE_SIZE};
use proptest::prelude::*;

fn page_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), PAGE_SIZE..=PAGE_SIZE)
}

/// A sparse set of edits applied to a page.
fn edits_strategy() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0..PAGE_SIZE, any::<u8>()), 0..200)
}

/// The byte-by-byte encoder [`Diff`] replaced, kept only as the oracle
/// for its run list: every maximal stretch of changed bytes, with its
/// new contents.
fn bytewise_runs(twin: &[u8], current: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < PAGE_SIZE {
        if twin[i] != current[i] {
            let start = i;
            while i < PAGE_SIZE && twin[i] != current[i] {
                i += 1;
            }
            runs.push((start, current[start..i].to_vec()));
        } else {
            i += 1;
        }
    }
    runs
}

/// `Diff::between` yields the oracle's runs, byte counts and wire size.
fn assert_matches_oracle(twin: &[u8], current: &[u8]) {
    let diff = Diff::between(twin, current);
    let expect = bytewise_runs(twin, current);
    let got: Vec<(usize, Vec<u8>)> = diff.runs().map(|(o, b)| (o, b.to_vec())).collect();
    assert_eq!(got, expect);
    assert_eq!(diff.changed_bytes(), expect.iter().map(|(_, b)| b.len()).sum::<usize>());
    let wire = expect.iter().map(|(_, b)| 4 + b.len() as u64).sum::<u64>() + 8;
    assert_eq!(diff.wire_bytes(), wire);
    let mut rebuilt = twin.to_vec();
    diff.apply(&mut rebuilt);
    assert_eq!(rebuilt, current);
}

/// Flip every byte of `page[start..end]` (XOR with a non-zero mask, so
/// each one really changes).
fn flip(page: &mut [u8], start: usize, end: usize, mask: u8) {
    for b in &mut page[start..end.min(PAGE_SIZE)] {
        *b ^= mask;
    }
}

/// A page of f64s and the same page after one relaxation-style update
/// (the SOR shape): most values move by a small relative step, so their
/// low mantissa bytes change and the exponent bytes stay; `keep` leaves
/// some values untouched.
fn f64_pages() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let n = PAGE_SIZE / 8;
    (
        proptest::collection::vec(-1_000_000i64..1_000_000, n..=n),
        proptest::collection::vec((any::<bool>(), -1000i64..1000), n..=n),
    )
        .prop_map(|(vals, steps)| {
            let vals: Vec<f64> = vals.iter().map(|&v| v as f64 / 1e3).collect();
            let twin: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let cur: Vec<u8> = vals
                .iter()
                .zip(&steps)
                .flat_map(|(v, &(keep, step))| {
                    let step = step as f64 * 1e-6;
                    let v = if keep { *v } else { *v * (1.0 + step) + step };
                    v.to_le_bytes()
                })
                .collect();
            (twin, cur)
        })
}

/// Runs placed around 8- and 64-byte boundaries: a boundary, a signed
/// offset from it, and a length near a multiple of 8.
fn boundary_runs() -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    proptest::collection::vec(
        (0..PAGE_SIZE / 8, any::<bool>(), 0usize..8, 0usize..10, 0usize..3, 1u8..=255).prop_map(
            |(word, line, back, words, extra, mask)| {
                let boundary = if line { word / 8 * 64 } else { word * 8 };
                let start = boundary.saturating_sub(back);
                let len = (8 * words + extra).max(1);
                (start, start + len, mask)
            },
        ),
        1..24,
    )
}

proptest! {
    #[test]
    fn diff_matches_bytewise_oracle_on_random_edits(
        twin in page_strategy(),
        edits in edits_strategy(),
    ) {
        let mut current = twin.clone();
        for (off, val) in &edits {
            current[*off] = *val;
        }
        assert_matches_oracle(&twin, &current);
    }

    #[test]
    fn diff_matches_bytewise_oracle_on_unrelated_pages(
        twin in page_strategy(),
        cur in page_strategy(),
    ) {
        assert_matches_oracle(&twin, &cur);
    }

    #[test]
    fn diff_matches_bytewise_oracle_on_dense_f64_pages(pages in f64_pages()) {
        let (twin, cur) = pages;
        assert_matches_oracle(&twin, &cur);
    }

    #[test]
    fn diff_matches_bytewise_oracle_across_word_and_line_boundaries(
        twin in page_strategy(),
        runs in boundary_runs(),
    ) {
        let mut current = twin.clone();
        for (start, end, mask) in runs {
            flip(&mut current, start, end, mask);
        }
        assert_matches_oracle(&twin, &current);
    }

    #[test]
    fn diff_matches_bytewise_oracle_on_a_run_ending_at_the_last_byte(
        twin in page_strategy(),
        start in 0..PAGE_SIZE,
        mask in 1u8..=255,
    ) {
        let mut current = twin.clone();
        flip(&mut current, start, PAGE_SIZE, mask);
        assert_matches_oracle(&twin, &current);
        let diff = Diff::between(&twin, &current);
        let (offset, bytes) = diff.runs().last().expect("one run at least");
        prop_assert_eq!(offset + bytes.len(), PAGE_SIZE);
    }

    #[test]
    fn diff_matches_bytewise_oracle_on_whole_and_identical_pages(
        twin in page_strategy(),
        mask in 1u8..=255,
    ) {
        let mut current = twin.clone();
        flip(&mut current, 0, PAGE_SIZE, mask);
        assert_matches_oracle(&twin, &current);
        let whole = Diff::between(&twin, &current);
        prop_assert_eq!(whole.runs().count(), 1);
        prop_assert_eq!(whole.changed_bytes(), PAGE_SIZE);
        assert_matches_oracle(&twin, &twin);
        prop_assert!(Diff::between(&twin, &twin).is_empty());
    }

    #[test]
    fn diff_reconstructs_any_modification(twin in page_strategy(), edits in edits_strategy()) {
        let mut current = twin.clone();
        for (off, val) in &edits {
            current[*off] = *val;
        }
        let diff = Diff::between(&twin, &current);
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, current);
    }

    #[test]
    fn diff_is_empty_iff_no_change(twin in page_strategy(), edits in edits_strategy()) {
        let mut current = twin.clone();
        for (off, val) in &edits {
            current[*off] = *val;
        }
        let diff = Diff::between(&twin, &current);
        prop_assert_eq!(diff.is_empty(), twin == current);
        prop_assert_eq!(diff.changed_bytes(),
            twin.iter().zip(&current).filter(|(a, b)| a != b).count());
    }

    #[test]
    fn disjoint_writers_merge_without_loss(
        twin in page_strategy(),
        edits_a in edits_strategy(),
        edits_b in edits_strategy(),
    ) {
        // Writer B's edits are shifted into the other half of the page
        // so the two edit sets are guaranteed disjoint.
        let mut a = twin.clone();
        for (off, val) in &edits_a {
            a[*off % (PAGE_SIZE / 2)] = *val;
        }
        let mut b = twin.clone();
        for (off, val) in &edits_b {
            b[PAGE_SIZE / 2 + (*off % (PAGE_SIZE / 2))] = *val;
        }
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        let mut home = twin.clone();
        da.apply(&mut home);
        db.apply(&mut home);
        // Every byte matches writer A in the low half, writer B in the
        // high half (multiple-writer protocol invariant).
        prop_assert_eq!(&home[..PAGE_SIZE / 2], &a[..PAGE_SIZE / 2]);
        prop_assert_eq!(&home[PAGE_SIZE / 2..], &b[PAGE_SIZE / 2..]);
    }

    #[test]
    fn diff_wire_size_bounded_by_page(twin in page_strategy(), cur in page_strategy()) {
        let diff = Diff::between(&twin, &cur);
        // Each run costs 4 bytes of header; runs are separated by at
        // least one unchanged byte, so there are at most PAGE_SIZE/2
        // runs (+8 bytes of message header).
        let bound = 8 + diff.changed_bytes() as u64 + 4 * (PAGE_SIZE as u64 / 2).max(1);
        prop_assert!(diff.wire_bytes() <= bound);
        prop_assert!(diff.wire_bytes() >= diff.changed_bytes() as u64);
    }

    #[test]
    fn addr_roundtrip(region in 0u32..1_000_000, offset in 0u32..u32::MAX) {
        let a = GlobalAddr::new(region, offset);
        prop_assert_eq!(a.region(), region);
        prop_assert_eq!(a.offset(), offset);
        let page = a.page();
        prop_assert_eq!(page.region, region);
        prop_assert_eq!(page.index as usize, offset as usize / PAGE_SIZE);
        prop_assert_eq!(PageId::unpack(page.pack()), page);
        prop_assert_eq!(
            page.base().offset() as usize + a.page_offset(),
            offset as usize
        );
    }

    #[test]
    fn every_page_gets_a_home_in_range(
        pages in 1u32..10_000,
        nodes in 1usize..64,
        chunk in 1u32..16,
        pin in 0usize..64,
    ) {
        for dist in [
            Distribution::Block,
            Distribution::Cyclic,
            Distribution::BlockCyclic(chunk),
            Distribution::OnNode(pin % nodes),
        ] {
            for probe in [0, pages / 2, pages - 1] {
                let home = dist.home_of(probe, pages, nodes);
                prop_assert!(home < nodes, "{dist:?} sent page {probe} to {home}");
            }
        }
    }

    #[test]
    fn block_distribution_is_monotone(pages in 1u32..5_000, nodes in 1usize..16) {
        let mut last = 0;
        for i in 0..pages {
            let h = Distribution::Block.home_of(i, pages, nodes);
            prop_assert!(h >= last, "block homes must be nondecreasing");
            last = h;
        }
    }

    #[test]
    fn arena_allocations_never_overlap(
        sizes in proptest::collection::vec((1usize..5000, 0u32..4), 1..50)
    ) {
        let mut arena = Arena::new(1, 1 << 20);
        let mut taken: Vec<(u32, u32)> = Vec::new();
        for (bytes, align_pow) in sizes {
            let align = 1usize << align_pow;
            if let Some(addr) = arena.alloc(bytes, align) {
                let start = addr.offset();
                let end = start + bytes as u32;
                prop_assert_eq!(start as usize % align, 0, "misaligned");
                for &(s, e) in &taken {
                    prop_assert!(end <= s || start >= e, "overlap [{start},{end}) vs [{s},{e})");
                }
                taken.push((start, end));
            }
        }
    }

    #[test]
    fn interval_merge_is_set_union(
        a in proptest::collection::vec(0u32..100, 0..30),
        b in proptest::collection::vec(0u32..100, 0..30),
    ) {
        let pid = |i: u32| PageId { region: 0, index: i };
        let mut iv = Interval::from_pages(&a.iter().map(|&i| pid(i)).collect::<Vec<_>>());
        let ivb = Interval::from_pages(&b.iter().map(|&i| pid(i)).collect::<Vec<_>>());
        iv.merge(&ivb);
        let expect: std::collections::BTreeSet<u32> =
            a.iter().chain(b.iter()).copied().collect();
        let got: Vec<u32> = iv.pages().map(|p| p.index).collect();
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }
}
