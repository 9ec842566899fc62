//! Differential proof that the paged copy-on-write [`HostMemory`] is
//! observationally identical to the obvious model — one flat `Vec<u8>` —
//! under random interleavings of every operation, including the two things
//! a flat vector cannot express and CoW must get right anyway:
//!
//! * **snapshots**: a `read_slice` view taken at any point must keep
//!   returning the bytes the model held at that instant, no matter how
//!   many writes/fills land on the region afterwards;
//! * **clones**: a cloned memory and its original must diverge
//!   independently, each tracking its own copy of the model from the
//!   moment of the clone;
//! * **deposits**: `write_bytes` / `write_slice` adopt whole pages by
//!   refcount when source and destination are page-aligned (the receive
//!   side of an RDMA deposit) — observationally they must stay plain
//!   byte copies, including when source and destination overlap;
//! * **the lazy page table**: it grows only on a write, up to the highest
//!   page written, and everything past that high-water mark (or in a hole
//!   below it) reads as zeros. A tail op reads, snapshots or writes at the
//!   end of the region, so the table is often grown to its last page while
//!   most pages below stay untouched.
//!
//! Offsets and lengths are drawn to straddle page boundaries aggressively
//! (the region spans several pages and `offset % region` lands anywhere),
//! so single-page fast paths, gathering reads, and scattering writes all
//! get exercised. `PROPTEST_CASES` scales the search in CI.

use proptest::collection;
use proptest::prelude::*;
use spin_hpu::memory::{HostMemory, MemSlice, HOST_PAGE};

/// Whole pages in the region.
const PAGES: usize = 8;

/// Region size: several pages plus a ragged tail, so "last page is
/// partial" is always in play and random writes leave holes in the table.
const LEN: usize = PAGES * HOST_PAGE + 1234;

/// Deterministic fill pattern for a write op.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
        .collect()
}

fn shape(offset: u64, len: u64) -> (usize, usize) {
    let offset = (offset as usize) % LEN;
    // Lengths biased across the page scale: bytes, sub-page, multi-page.
    let len = match len % 4 {
        0 => (len % 16) as usize,
        1 => (len % HOST_PAGE as u64) as usize,
        _ => (len % (2 * HOST_PAGE as u64 + 500)) as usize,
    };
    (offset, len.min(LEN - offset))
}

proptest! {
    #[test]
    fn paged_cow_memory_matches_flat_vec_model(
        ops in collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()), 1..80),
    ) {
        let mut mem = HostMemory::new(LEN);
        let mut model: Vec<u8> = vec![0; LEN];
        // Live snapshots: (view, bytes the model held when it was taken).
        let mut snapshots: Vec<(MemSlice, Vec<u8>)> = Vec::new();
        // A diverged clone pair, created at most once per case.
        let mut forked: Option<(HostMemory, Vec<u8>)> = None;

        for &(code, a, b, v) in &ops {
            let (off, len) = shape(a, b);
            match code % 9 {
                // Write a deterministic pattern.
                0 => {
                    let data = pattern(v, len);
                    mem.write(off, &data).unwrap();
                    model[off..off + len].copy_from_slice(&data);
                }
                // Fill with one byte.
                1 => {
                    mem.fill(off, len, v).unwrap();
                    model[off..off + len].fill(v);
                }
                // Reads: all three shapes must agree with the model.
                2 => {
                    prop_assert_eq!(&mem.read(off, len).unwrap()[..], &model[off..off + len]);
                    prop_assert_eq!(&mem.read_bytes(off, len).unwrap()[..], &model[off..off + len]);
                    prop_assert_eq!(
                        mem.read_slice(off, len).unwrap().to_vec(),
                        &model[off..off + len]
                    );
                }
                // Take a CoW snapshot to be checked after later mutations.
                3 => {
                    snapshots.push((
                        mem.read_slice(off, len).unwrap(),
                        model[off..off + len].to_vec(),
                    ));
                }
                // Typed accessor round-trip (8-byte, may straddle a page).
                4 => {
                    let off = off.min(LEN - 8);
                    let x = a.wrapping_mul(0x9E3779B97F4A7C15) ^ u64::from(v);
                    mem.put_u64(off, x).unwrap();
                    model[off..off + 8].copy_from_slice(&x.to_le_bytes());
                    prop_assert_eq!(mem.get_u64(off).unwrap(), x);
                }
                // Deposit via `write_bytes`, as the receive path does for
                // wire payloads. Even `v` picks page-aligned whole-page
                // source and destination so the refcount-adoption fast
                // path fires (source and destination may be the same
                // page); odd `v` deposits an arbitrary window through the
                // scatter path. Either way it must behave as a byte copy.
                5 => {
                    let (src, dst, n) = if v % 2 == 0 {
                        (
                            ((a as usize) % PAGES) * HOST_PAGE,
                            ((b as usize) % PAGES) * HOST_PAGE,
                            HOST_PAGE,
                        )
                    } else {
                        let (src, n) = shape(b, a ^ 0x5bd1_e995);
                        (src, off.min(LEN - n), n)
                    };
                    let data = mem.read_bytes(src, n).unwrap();
                    let expect = model[src..src + n].to_vec();
                    mem.write_bytes(dst, &data).unwrap();
                    model[dst..dst + n].copy_from_slice(&expect);
                }
                // Deposit a gathered view via `write_slice` (the memcpy
                // path). The view snapshots its source, so overlapping
                // source/destination is well-defined: model it as a copy
                // through a temporary.
                6 => {
                    let (src, n) = shape(b.rotate_left(17), a);
                    let dst = (a as usize).wrapping_mul(977) % LEN;
                    let n = n.min(LEN - dst);
                    let view = mem.read_slice(src, n).unwrap();
                    let expect = model[src..src + n].to_vec();
                    mem.write_slice(dst, &view).unwrap();
                    model[dst..dst + n].copy_from_slice(&expect);
                }
                // Tail op: a window that ends at or near the end of the
                // region, on pages past the table's high-water mark until
                // something writes there. `v` picks write, snapshot or read.
                7 => {
                    let off = LEN - 1 - (a as usize) % (2 * HOST_PAGE);
                    let len = ((b as usize) % (2 * HOST_PAGE)).min(LEN - off);
                    match v % 3 {
                        0 => {
                            let data = pattern(v, len);
                            mem.write(off, &data).unwrap();
                            model[off..off + len].copy_from_slice(&data);
                        }
                        1 => snapshots.push((
                            mem.read_slice(off, len).unwrap(),
                            model[off..off + len].to_vec(),
                        )),
                        _ => {
                            prop_assert_eq!(&mem.read(off, len).unwrap()[..], &model[off..off + len]);
                            prop_assert_eq!(
                                mem.read_slice(off, LEN - off).unwrap().to_vec(),
                                &model[off..]
                            );
                        }
                    }
                }
                // Fork a clone once, then keep writing to it only: the
                // clone tracks its own model, the original keeps tracking
                // `model` (page sharing must never leak writes across).
                _ => match &mut forked {
                    None => forked = Some((mem.clone(), model.clone())),
                    Some((fm, fmodel)) => {
                        let data = pattern(v.wrapping_add(1), len);
                        fm.write(off, &data).unwrap();
                        fmodel[off..off + len].copy_from_slice(&data);
                        prop_assert_eq!(&fm.read(off, len).unwrap()[..], &fmodel[off..off + len]);
                    }
                },
            }
            // Out-of-bounds accesses fail on the true length on every shape.
            prop_assert!(mem.read(LEN, 1).is_err());
            prop_assert!(mem.read_slice(LEN - 1, 2).is_err());
            prop_assert!(mem.write(LEN - 1, &[0, 0]).is_err());
        }

        // Full-memory agreement at the end…
        prop_assert_eq!(&mem.read(0, LEN).unwrap()[..], &model[..]);
        if let Some((fm, fmodel)) = &forked {
            prop_assert_eq!(&fm.read(0, LEN).unwrap()[..], &fmodel[..]);
        }
        // …and every snapshot still shows the bytes of its moment.
        for (i, (view, expect)) in snapshots.iter().enumerate() {
            prop_assert_eq!(&view.to_vec(), expect, "snapshot {} mutated under CoW", i);
            // Window reads of the snapshot agree with it too.
            if !expect.is_empty() {
                let mid = expect.len() / 2;
                prop_assert_eq!(&view.slice(mid, expect.len() - mid)[..], &expect[mid..]);
            }
        }
    }
}
