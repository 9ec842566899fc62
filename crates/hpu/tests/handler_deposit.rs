//! Differential proof that a handler's DMA deposit is a plain byte copy,
//! whether it shares the packet's storage or copies it.
//!
//! `HandlerCtx::dma_to_host_b` / `_nb` adopt a whole page of the handler's
//! packet at a page-aligned destination by refcount, and copy everything
//! else. Packets here are what the receive path hands a payload handler:
//! page views of a sender's [`HostMemory`] (page-aligned, or misaligned and
//! possibly gathered across two pages) or plain byte buffers of up to two
//! pages. Random sub-slices of them, page-long windows at any start, or
//! foreign copies of their bytes are deposited at random offsets, interleaved with later writes to both the sender's and
//! the receiver's memory. Both memories are compared against flat
//! `Vec<u8>` models after every step, so writing the sender's page after a
//! receiver adopted it provably leaves the receiver unchanged, and the
//! other way round. Packets kept alive across steps must keep their bytes
//! too. `PROPTEST_CASES` scales the search in CI.

use bytes::Bytes;
use proptest::collection;
use proptest::prelude::*;
use spin_hpu::ctx::{HandlerCtx, MemRegion};
use spin_hpu::dma::{DmaEngine, DmaParams};
use spin_hpu::memory::{HostMemory, HOST_PAGE};
use spin_sim::time::Time;

/// Whole pages in each memory.
const PAGES: usize = 6;

/// Memory size: whole pages plus a ragged tail.
const LEN: usize = PAGES * HOST_PAGE + 777;

/// Deterministic fill pattern.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(29).wrapping_add((i % 253) as u8))
        .collect()
}

/// A window of the memory: offset anywhere, length from bytes to two pages.
fn window(a: u64, b: u64) -> (usize, usize) {
    let off = (a as usize) % LEN;
    let len = match b % 3 {
        0 => (b % 16) as usize,
        1 => (b % HOST_PAGE as u64) as usize,
        _ => (b % (2 * HOST_PAGE as u64)) as usize,
    };
    (off, len.min(LEN - off))
}

/// Build a packet from the sender's memory (or a plain buffer) and return
/// it with the bytes it must hold. `kind` picks the shape.
fn packet(kind: u8, a: u64, b: u64, src: &HostMemory, src_model: &[u8]) -> (Bytes, Vec<u8>) {
    match kind % 3 {
        // A whole page of the sender, as an MTU-aligned send slices it.
        0 => {
            let off = ((a as usize) % PAGES) * HOST_PAGE;
            (
                src.read_bytes(off, HOST_PAGE).unwrap(),
                src_model[off..off + HOST_PAGE].to_vec(),
            )
        }
        // A window from a page-misaligned (odd) offset: a view inside one
        // page, or gathered when it straddles two.
        1 => {
            let off = ((a as usize) % (PAGES * HOST_PAGE)) | 1;
            let n = (1 + (b as usize) % HOST_PAGE).min(LEN - off);
            (
                src.read_bytes(off, n).unwrap(),
                src_model[off..off + n].to_vec(),
            )
        }
        // A plain buffer: one page, or any size up to two pages, so a
        // page-long piece can start inside it.
        _ => {
            let n = if b.is_multiple_of(2) {
                HOST_PAGE
            } else {
                (b as usize) % (2 * HOST_PAGE)
            };
            let data = pattern(a as u8, n);
            (Bytes::from(data.clone()), data)
        }
    }
}

proptest! {
    #[test]
    fn handler_deposits_match_flat_vec_model(
        ops in collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()), 1..60),
    ) {
        let mut src = HostMemory::new(LEN);
        let mut src_model = vec![0u8; LEN];
        let mut dst = HostMemory::new(LEN);
        let mut dst_model = vec![0u8; LEN];
        let mut dma = DmaEngine::new(DmaParams::integrated());
        // Packets kept alive past their deposit, with the bytes they held.
        let mut live: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut now = Time::ZERO;

        for &(code, a, b, v) in &ops {
            match code % 6 {
                // Write the sender's memory (possibly a page a receiver
                // has adopted).
                0 => {
                    let (off, len) = window(a, b);
                    let data = pattern(v, len);
                    src.write(off, &data).unwrap();
                    src_model[off..off + len].copy_from_slice(&data);
                }
                // Write the receiver's memory (possibly an adopted page).
                1 => {
                    let (off, len) = window(a, b);
                    let data = pattern(v.wrapping_add(101), len);
                    dst.write(off, &data).unwrap();
                    dst_model[off..off + len].copy_from_slice(&data);
                }
                // Take a sender snapshot as a packet and keep it alive.
                2 => live.push(packet(v, a, b, &src, &src_model)),
                // A payload handler deposits (part of) its packet.
                _ => {
                    let (pkt, expect) = packet(v, a, b, &src, &src_model);
                    // Piece of the packet: whole, a random sub-slice, a
                    // foreign copy of the whole that is not packet memory,
                    // or one page from a random start.
                    let piece = (v / 3) % 4;
                    let (lo, hi) = match piece {
                        1 if !pkt.is_empty() => {
                            let lo = (a as usize / 7) % pkt.len();
                            (lo, lo + (b as usize / 5) % (pkt.len() - lo + 1))
                        }
                        3 if pkt.len() >= HOST_PAGE => {
                            let lo = (a as usize / 7) % (pkt.len() - HOST_PAGE + 1);
                            (lo, lo + HOST_PAGE)
                        }
                        _ => (0, pkt.len()),
                    };
                    let foreign = piece == 2;
                    let n = hi - lo;
                    // Destination: page-aligned or anywhere, in range.
                    let off = if (v / 12) % 2 == 0 {
                        ((b as usize / 3) % ((LEN - n) / HOST_PAGE + 1)) * HOST_PAGE
                    } else {
                        (b as usize / 3) % (LEN - n + 1)
                    };
                    let copy = pkt[lo..hi].to_vec();
                    let data: &[u8] = if foreign { &copy } else { &pkt[lo..hi] };
                    let mut ctx = HandlerCtx::new(
                        now,
                        0,
                        1,
                        &mut dma,
                        &mut dst,
                        &pkt,
                        (0, LEN),
                        (0, 0),
                        HOST_PAGE,
                    );
                    if (v / 24) % 2 == 0 {
                        ctx.dma_to_host_b(MemRegion::MeHost, off, data).unwrap();
                    } else {
                        let h = ctx.dma_to_host_nb(MemRegion::MeHost, off, data).unwrap();
                        ctx.dma_wait(h);
                    }
                    now += ctx.finish().duration;
                    dst_model[off..off + n].copy_from_slice(&expect[lo..hi]);
                    // A whole one-page packet at a page-aligned
                    // destination becomes the destination page itself.
                    if !foreign && n == HOST_PAGE && pkt.len() == HOST_PAGE && off.is_multiple_of(HOST_PAGE) {
                        prop_assert_eq!(
                            dst.read_bytes(off, HOST_PAGE).unwrap().as_ptr(),
                            pkt.as_ptr()
                        );
                    }
                    if (v / 48) % 2 == 0 {
                        live.push((pkt, expect));
                    }
                }
            }
            prop_assert_eq!(&src.read(0, LEN).unwrap()[..], &src_model[..]);
            prop_assert_eq!(&dst.read(0, LEN).unwrap()[..], &dst_model[..]);
        }

        for (i, (pkt, expect)) in live.iter().enumerate() {
            prop_assert_eq!(&pkt[..], &expect[..], "packet {} changed under a write", i);
        }
    }
}
