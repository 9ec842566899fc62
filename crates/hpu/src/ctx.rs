//! The handler execution context: the sandbox sPIN handlers run in.
//!
//! A handler in this reproduction is real Rust code operating on real packet
//! bytes, but its *time* is simulated: every action it takes through
//! [`HandlerCtx`] advances an intra-handler clock by the documented cycle
//! cost ([`crate::cost`]), and blocking DMA advances it by the DMA engine's
//! contended completion time. Side effects that leave the NIC (puts, gets,
//! counter updates) are recorded as timestamped [`OutAction`]s which the NIC
//! runtime in `spin-core` feeds back into the discrete-event queue — the
//! same role the paper's "simcalls" play between gem5 and LogGOPSim (§4.2).
//!
//! The context enforces the sandbox of §2: handlers may only touch the two
//! host-memory windows their ME grants (the ME region and the
//! `handler_host_mem` region of Appendix B.1); any other access is a
//! [`Segv`], reported through the handler's error return code.
//!
//! A payload handler's context holds the packet it runs on, so packet
//! bytes leave the NIC without a copy, as `PtlHandlerPutFromDevice` does
//! from the packet buffer: a slice of the packet handed to
//! [`HandlerCtx::put_from_device`] becomes a view of the packet's storage,
//! and one handed to [`HandlerCtx::dma_to_host_b`] as a whole page at a
//! page-aligned destination is adopted by the host page table by refcount
//! ([`HostMemory::write_bytes`]). Any other buffer (HPU state, a stack
//! array, bytes read back by DMA) is copied. Either way the bytes, and the
//! simulated time, are the same.

use crate::cost;
use crate::dma::DmaEngine;
use crate::memory::{HostMemory, Segv, HOST_PAGE};
use bytes::Bytes;
use spin_portals::types::{MatchBits, ProcessId, UserHeader};
use spin_sim::time::Time;

/// Header-handler return codes (Appendix B.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderRet {
    /// Drop the whole message (NIC discards all following packets).
    Drop,
    /// Drop, and keep the ME pending (do not complete it).
    DropPending,
    /// Continue: invoke payload handlers on data packets.
    ProcessData,
    /// Continue, and keep the ME pending.
    ProcessDataPending,
    /// Execute the default Portals action (deposit at the ME) with no
    /// further handlers; the deposited payload includes the user header.
    Proceed,
    /// Default action, keep the ME pending.
    ProceedPending,
    /// User-signalled handler error.
    Fail,
}

/// Payload-handler return codes (Appendix B.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadRet {
    /// Drop this packet (counts toward `dropped_bytes`).
    Drop,
    /// Packet processed.
    Success,
    /// User-signalled handler error.
    Fail,
}

/// Completion-handler return codes (Appendix B.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionRet {
    /// Message done; complete the ME.
    Success,
    /// Message done; do not complete the ME (e.g. rendezvous get pending).
    SuccessPending,
    /// User-signalled handler error.
    Fail,
}

/// Arguments to the completion handler (§3.2.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionInfo {
    /// Payload bytes dropped by payload handlers or flow control.
    pub dropped_bytes: usize,
    /// Whether flow control fired during this message.
    pub flow_control_triggered: bool,
}

/// Which of the two sandboxed host-memory windows an access targets
/// (`PTL_ME_HOST_MEM` / `PTL_HANDLER_HOST_MEM`, Appendix B.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRegion {
    /// The ME's memory region (message destination).
    MeHost,
    /// The auxiliary handler region (`handler_host_mem_*` of B.1).
    HandlerHost,
}

/// A side effect recorded by a handler for the NIC runtime to execute.
#[derive(Debug, Clone)]
pub enum OutAction {
    /// `PtlHandlerPutFromDevice`: a single-packet put with payload taken
    /// from NIC memory (packet buffer or scratchpad).
    PutFromDevice {
        /// Payload bytes (≤ MTU).
        payload: Bytes,
        /// Destination process.
        target: ProcessId,
        /// Match bits at the destination.
        match_bits: MatchBits,
        /// Offset at the destination ME.
        remote_offset: usize,
        /// Out-of-band data.
        hdr_data: u64,
        /// User header prepended to the payload.
        user_hdr: UserHeader,
    },
    /// `PtlHandlerPutFromHost`: enqueue a put of host memory "as if it was
    /// initiated from the host itself". Offset is ME-relative.
    PutFromHost {
        /// Source offset within the ME region.
        me_offset: usize,
        /// Bytes to send.
        length: usize,
        /// Destination process.
        target: ProcessId,
        /// Match bits at the destination.
        match_bits: MatchBits,
        /// Offset at the destination ME.
        remote_offset: usize,
        /// Out-of-band data.
        hdr_data: u64,
        /// User header prepended to the payload.
        user_hdr: UserHeader,
    },
    /// `PtlHandlerGet`: fetch remote data into the ME region (rendezvous).
    Get {
        /// Destination offset within the local ME region.
        me_offset: usize,
        /// Bytes to fetch.
        length: usize,
        /// Remote process to read from.
        target: ProcessId,
        /// Match bits at the remote match list.
        match_bits: MatchBits,
        /// Offset at the remote ME.
        remote_offset: usize,
    },
    /// `PtlHandlerCTInc`.
    CtInc {
        /// Local counter id.
        ct: u32,
        /// Increment.
        by: u64,
    },
    /// `PtlHandlerCTSet`.
    CtSet {
        /// Local counter id.
        ct: u32,
        /// New value.
        value: u64,
    },
}

/// Handle for a nonblocking DMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaHandle(usize);

/// The result of one handler execution, consumed by the NIC runtime.
#[derive(Debug, Clone)]
pub struct HandlerRun {
    /// Total handler duration (compute + blocking-DMA waits).
    pub duration: Time,
    /// Pure compute/occupancy time (what the core is busy for when
    /// `yield_on_dma` is enabled).
    pub compute: Time,
    /// Time spent blocked on DMA.
    pub dma_blocked: Time,
    /// Side effects with their absolute issue times.
    pub actions: Vec<(Time, OutAction)>,
}

/// The execution context handed to a running handler.
pub struct HandlerCtx<'a> {
    start: Time,
    local: Time,
    compute: Time,
    dma_blocked: Time,
    core: usize,
    num_hpus: usize,
    dma: &'a mut DmaEngine,
    host: &'a mut HostMemory,
    packet: &'a Bytes,
    me_region: (usize, usize),
    handler_region: (usize, usize),
    max_payload: usize,
    actions: Vec<(Time, OutAction)>,
    nb_dma: Vec<Time>,
}

impl<'a> HandlerCtx<'a> {
    /// Create a context for a handler starting at absolute time `start`,
    /// pinned to `core` of `num_hpus`, running on `packet` (the payload
    /// handler's packet data; empty for header and completion handlers),
    /// sandboxed to the given host-memory windows (`(base, len)` pairs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        start: Time,
        core: usize,
        num_hpus: usize,
        dma: &'a mut DmaEngine,
        host: &'a mut HostMemory,
        packet: &'a Bytes,
        me_region: (usize, usize),
        handler_region: (usize, usize),
        max_payload: usize,
    ) -> Self {
        let mut ctx = HandlerCtx {
            start,
            local: Time::ZERO,
            compute: Time::ZERO,
            dma_blocked: Time::ZERO,
            core,
            num_hpus,
            dma,
            host,
            packet,
            me_region,
            handler_region,
            max_payload,
            actions: Vec::new(),
            nb_dma: Vec::new(),
        };
        ctx.charge(cost::HANDLER_INVOKE);
        ctx
    }

    /// `PTL_MY_HPU`: the core this handler is pinned to.
    pub fn my_hpu(&self) -> usize {
        self.core
    }

    /// `PTL_NUM_HPUS`: simultaneously active handler units.
    pub fn num_hpus(&self) -> usize {
        self.num_hpus
    }

    /// Absolute simulated time inside the handler.
    pub fn now(&self) -> Time {
        self.start + self.local
    }

    /// Intra-handler elapsed time.
    pub fn elapsed(&self) -> Time {
        self.local
    }

    /// Charge `n` HPU cycles of computation. Handlers use this to account
    /// for work done in plain Rust (per-element loops etc.); the per-action
    /// costs of the `PtlHandler*` calls are charged automatically.
    pub fn compute_cycles(&mut self, n: u64) {
        self.charge(n);
    }

    fn charge(&mut self, n: u64) {
        let t = cost::cycles(n);
        self.local += t;
        self.compute += t;
    }

    fn block(&mut self, until_abs: Time) {
        let now = self.now();
        if until_abs > now {
            let wait = until_abs - now;
            self.local += wait;
            self.dma_blocked += wait;
        }
    }

    fn resolve(&self, region: MemRegion, offset: usize, len: usize) -> Result<usize, Segv> {
        let (base, region_len) = match region {
            MemRegion::MeHost => self.me_region,
            MemRegion::HandlerHost => self.handler_region,
        };
        if offset.checked_add(len).is_some_and(|e| e <= region_len) {
            Ok(base + offset)
        } else {
            Err(Segv {
                offset,
                len,
                region: region_len,
            })
        }
    }

    /// `bytes` as a view of the packet's storage when it lies inside the
    /// packet this handler runs on; `None` for any other buffer.
    fn packet_view(&self, bytes: &[u8]) -> Option<Bytes> {
        let start = (bytes.as_ptr() as usize).checked_sub(self.packet.as_ptr() as usize)?;
        let end = start + bytes.len();
        (end <= self.packet.len()).then(|| self.packet.slice(start..end))
    }

    /// Deposit `data` at absolute host address `abs`: a whole page of the
    /// packet at a page-aligned address is adopted by refcount, anything
    /// else is copied.
    fn deposit(&mut self, abs: usize, data: &[u8]) -> Result<(), Segv> {
        if abs.is_multiple_of(HOST_PAGE) && data.len() == HOST_PAGE {
            if let Some(view) = self.packet_view(data) {
                return self.host.write_bytes(abs, &view);
            }
        }
        self.host.write(abs, data)
    }

    // ---- DMA (Appendix B.6) ----

    /// `PtlHandlerDMAFromHostB`: blocking read of `len` bytes at `offset`
    /// within `region`. Blocks for the full contended round trip (2·L +
    /// transfer).
    pub fn dma_from_host_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, Segv> {
        self.charge(cost::DMA_ISSUE);
        let abs = self.resolve(region, offset, len)?;
        let timing = self.dma.read(self.now(), len);
        let data = self.host.read(abs, len)?.to_vec();
        self.block(timing.complete);
        Ok(data)
    }

    /// `PtlHandlerDMAToHostB`: blocking write of `data` at `offset` within
    /// `region`. Blocks until the data path accepted the data (the short
    /// blocking sections in the Appendix C.3.2 traces); global visibility is
    /// one DMA latency later. A whole page of the packet written to a
    /// page-aligned address shares the packet's storage; any other write
    /// copies (see the module docs).
    pub fn dma_to_host_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        data: &[u8],
    ) -> Result<(), Segv> {
        self.charge(cost::DMA_ISSUE);
        let abs = self.resolve(region, offset, data.len())?;
        let timing = self.dma.write(self.now(), data.len());
        self.deposit(abs, data)?;
        self.block(timing.channel_end);
        Ok(())
    }

    /// `PtlHandlerDMAFromHostNB`: nonblocking read. Returns the data and a
    /// handle; the data must be considered available only after
    /// [`Self::dma_wait`] (timing-wise the wait is where the latency lands).
    pub fn dma_from_host_nb(
        &mut self,
        region: MemRegion,
        offset: usize,
        len: usize,
    ) -> Result<(Vec<u8>, DmaHandle), Segv> {
        self.charge(cost::DMA_ISSUE + cost::DMA_NB_EXTRA);
        let abs = self.resolve(region, offset, len)?;
        let timing = self.dma.read(self.now(), len);
        let data = self.host.read(abs, len)?.to_vec();
        self.nb_dma.push(timing.complete);
        Ok((data, DmaHandle(self.nb_dma.len() - 1)))
    }

    /// `PtlHandlerDMAToHostNB`: nonblocking write. Shares or copies the
    /// bytes exactly as [`Self::dma_to_host_b`] does.
    pub fn dma_to_host_nb(
        &mut self,
        region: MemRegion,
        offset: usize,
        data: &[u8],
    ) -> Result<DmaHandle, Segv> {
        self.charge(cost::DMA_ISSUE + cost::DMA_NB_EXTRA);
        let abs = self.resolve(region, offset, data.len())?;
        let timing = self.dma.write(self.now(), data.len());
        self.deposit(abs, data)?;
        self.nb_dma.push(timing.channel_end);
        Ok(DmaHandle(self.nb_dma.len() - 1))
    }

    /// `PtlHandlerDMATest`: has the transfer finished?
    pub fn dma_test(&mut self, h: DmaHandle) -> bool {
        self.charge(cost::DMA_TEST);
        self.nb_dma[h.0] <= self.now()
    }

    /// `PtlHandlerDMAWait`: block until the transfer finished.
    pub fn dma_wait(&mut self, h: DmaHandle) {
        self.charge(cost::DMA_TEST);
        self.block(self.nb_dma[h.0]);
    }

    /// `PtlHandlerDMACAS` (blocking form): atomic compare-and-swap on host
    /// memory over the interconnect. On failure `cmp` receives the current
    /// value.
    pub fn dma_cas_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        cmp: &mut u64,
        swap: u64,
    ) -> Result<bool, Segv> {
        self.charge(cost::DMA_ATOMIC_ISSUE);
        let abs = self.resolve(region, offset, 8)?;
        let timing = self.dma.atomic(self.now());
        let ok = self.host.cas_u64(abs, cmp, swap)?;
        self.block(timing.complete);
        Ok(ok)
    }

    /// `PtlHandlerDMAFetchAdd` (blocking form): atomic fetch-add on host
    /// memory; returns the prior value.
    pub fn dma_fetch_add_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        inc: u64,
    ) -> Result<u64, Segv> {
        self.charge(cost::DMA_ATOMIC_ISSUE);
        let abs = self.resolve(region, offset, 8)?;
        let timing = self.dma.atomic(self.now());
        let before = self.host.fetch_add_u64(abs, inc)?;
        self.block(timing.complete);
        Ok(before)
    }

    // ---- message generation ----

    /// `PtlHandlerPutFromDevice`: single-packet put from NIC memory.
    /// Payload must fit `max_payload_size`. Bytes of the handler's packet
    /// are sent as a view of the packet's storage; any other buffer (HPU
    /// state, a stack array) is copied.
    pub fn put_from_device(
        &mut self,
        payload: &[u8],
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
    ) -> Result<(), Segv> {
        self.put_from_device_with_header(
            payload,
            target,
            match_bits,
            remote_offset,
            hdr_data,
            UserHeader::empty(),
        )
    }

    /// `PtlHandlerPutFromHost`: nonblocking put of ME-region host memory via
    /// the normal send path.
    pub fn put_from_host(
        &mut self,
        me_offset: usize,
        length: usize,
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
    ) -> Result<(), Segv> {
        self.charge(cost::PUT_FROM_HOST_ISSUE);
        // Bounds-check against the sandbox now; the runtime DMAs later.
        self.resolve(MemRegion::MeHost, me_offset, length)?;
        self.actions.push((
            self.now(),
            OutAction::PutFromHost {
                me_offset,
                length,
                target,
                match_bits,
                remote_offset,
                hdr_data,
                user_hdr: UserHeader::empty(),
            },
        ));
        Ok(())
    }

    /// Variant of [`Self::put_from_host`] carrying a user header (protocol
    /// messages).
    #[allow(clippy::too_many_arguments)]
    pub fn put_from_host_with_header(
        &mut self,
        me_offset: usize,
        length: usize,
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
        user_hdr: UserHeader,
    ) -> Result<(), Segv> {
        self.charge(cost::PUT_FROM_HOST_ISSUE);
        self.resolve(MemRegion::MeHost, me_offset, length)?;
        self.actions.push((
            self.now(),
            OutAction::PutFromHost {
                me_offset,
                length,
                target,
                match_bits,
                remote_offset,
                hdr_data,
                user_hdr,
            },
        ));
        Ok(())
    }

    /// Variant of [`Self::put_from_device`] carrying a user header.
    #[allow(clippy::too_many_arguments)]
    pub fn put_from_device_with_header(
        &mut self,
        payload: &[u8],
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
        user_hdr: UserHeader,
    ) -> Result<(), Segv> {
        assert!(
            payload.len() <= self.max_payload,
            "PutFromDevice payload {} exceeds max_payload_size {}",
            payload.len(),
            self.max_payload
        );
        self.charge(cost::PUT_FROM_DEVICE_ISSUE);
        self.actions.push((
            self.now(),
            OutAction::PutFromDevice {
                payload: self
                    .packet_view(payload)
                    .unwrap_or_else(|| Bytes::copy_from_slice(payload)),
                target,
                match_bits,
                remote_offset,
                hdr_data,
                user_hdr,
            },
        ));
        Ok(())
    }

    /// `PtlHandlerGet`: issue a get to a remote process, depositing into the
    /// local ME region (used by the offloaded rendezvous protocol, §5.1).
    pub fn issue_get(
        &mut self,
        me_offset: usize,
        length: usize,
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
    ) -> Result<(), Segv> {
        self.charge(cost::GET_ISSUE);
        self.resolve(MemRegion::MeHost, me_offset, length)?;
        self.actions.push((
            self.now(),
            OutAction::Get {
                me_offset,
                length,
                target,
                match_bits,
                remote_offset,
            },
        ));
        Ok(())
    }

    /// `PtlHandlerCTInc`.
    pub fn ct_inc(&mut self, ct: u32, by: u64) {
        self.charge(cost::CT_OP);
        self.actions.push((self.now(), OutAction::CtInc { ct, by }));
    }

    /// `PtlHandlerCTSet`.
    pub fn ct_set(&mut self, ct: u32, value: u64) {
        self.charge(cost::CT_OP);
        self.actions
            .push((self.now(), OutAction::CtSet { ct, value }));
    }

    /// `PtlHandlerYield`: scheduling hint (charged, otherwise a no-op in
    /// this model — the pool's yield-on-DMA option covers descheduling).
    pub fn yield_now(&mut self) {
        self.charge(cost::YIELD);
    }

    /// Finish the handler, charging the epilogue and yielding the run record.
    pub fn finish(mut self) -> HandlerRun {
        self.charge(cost::HANDLER_RETURN);
        HandlerRun {
            duration: self.local,
            compute: self.compute,
            dma_blocked: self.dma_blocked,
            actions: self.actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::DmaParams;

    /// A DMA engine, 1 MiB of host memory, and an empty packet.
    fn setup() -> (DmaEngine, HostMemory, Bytes) {
        (
            DmaEngine::new(DmaParams::integrated()),
            HostMemory::new(1 << 20),
            Bytes::new(),
        )
    }

    fn ctx<'a>(
        dma: &'a mut DmaEngine,
        host: &'a mut HostMemory,
        packet: &'a Bytes,
    ) -> HandlerCtx<'a> {
        HandlerCtx::new(
            Time::from_us(1),
            0,
            4,
            dma,
            host,
            packet,
            (0, 1 << 16),       // ME region: first 64 KiB
            (1 << 16, 1 << 10), // handler region: 1 KiB after it
            4096,
        )
    }

    #[test]
    fn invoke_cost_charged() {
        let (mut dma, mut host, none) = setup();
        let c = ctx(&mut dma, &mut host, &none);
        assert_eq!(c.elapsed(), cost::cycles(cost::HANDLER_INVOKE));
        assert_eq!(c.my_hpu(), 0);
        assert_eq!(c.num_hpus(), 4);
        let run = c.finish();
        assert_eq!(
            run.duration,
            cost::cycles(cost::HANDLER_INVOKE + cost::HANDLER_RETURN)
        );
        assert!(run.actions.is_empty());
    }

    #[test]
    fn blocking_read_blocks_for_round_trip() {
        let (mut dma, mut host, none) = setup();
        host.write(100, &[7u8; 64]).unwrap();
        let mut c = ctx(&mut dma, &mut host, &none);
        let before = c.elapsed();
        let data = c.dma_from_host_b(MemRegion::MeHost, 100, 64).unwrap();
        assert_eq!(data, vec![7u8; 64]);
        // 2 * 50 ns latency dominates for 64 B.
        let blocked = c.elapsed() - before;
        assert!(blocked > Time::from_ns(100), "{blocked}");
        let run = c.finish();
        assert!(run.dma_blocked > Time::from_ns(99));
        assert!(run.compute < Time::from_ns(20));
    }

    #[test]
    fn blocking_write_blocks_briefly() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        c.dma_to_host_b(MemRegion::MeHost, 0, &[1u8; 4096]).unwrap();
        // Write blocks for the channel only (~27 ns at 150 GiB/s), no 2L.
        assert!(c.elapsed() < Time::from_ns(60), "{}", c.elapsed());
        let run = c.finish();
        assert!(run.duration < Time::from_ns(60));
        assert_eq!(&host.read(0, 1).unwrap()[..], &[1]);
    }

    #[test]
    fn sandbox_enforced() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        // ME region is 64 KiB: offset 65536 is out.
        assert!(c.dma_from_host_b(MemRegion::MeHost, 1 << 16, 8).is_err());
        // Handler region is 1 KiB.
        assert!(c
            .dma_to_host_b(MemRegion::HandlerHost, 1020, &[0; 8])
            .is_err());
        assert!(c
            .dma_to_host_b(MemRegion::HandlerHost, 1016, &[0; 8])
            .is_ok());
        // put_from_host is bounds-checked too.
        assert!(c.put_from_host(1 << 16, 8, 1, 0, 0, 0).is_err());
    }

    #[test]
    fn handler_region_is_offset() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        c.dma_to_host_b(MemRegion::HandlerHost, 0, &[9u8; 4])
            .unwrap();
        drop(c.finish());
        // Lands at absolute 65536.
        assert_eq!(&host.read(1 << 16, 4).unwrap()[..], &[9, 9, 9, 9]);
    }

    #[test]
    fn nonblocking_dma_overlaps() {
        let (mut dma, mut host, none) = setup();
        host.write(0, &[3u8; 4096]).unwrap();
        let mut c = ctx(&mut dma, &mut host, &none);
        let (data, h) = c.dma_from_host_nb(MemRegion::MeHost, 0, 4096).unwrap();
        assert_eq!(data[0], 3);
        assert!(!c.dma_test(h), "can't be done immediately");
        // Overlap compute with the transfer.
        c.compute_cycles(1000); // 400 ns
        assert!(c.dma_test(h), "done after 400 ns of compute");
        let before = c.elapsed();
        c.dma_wait(h);
        // Wait is (almost) free now.
        assert!(c.elapsed() - before < Time::from_ns(5));
    }

    #[test]
    fn actions_carry_issue_timestamps() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        c.compute_cycles(100);
        c.put_from_device(&[1, 2, 3], 5, 42, 0, 0).unwrap();
        c.compute_cycles(100);
        c.put_from_host(0, 4096, 6, 43, 0, 0).unwrap();
        let run = c.finish();
        assert_eq!(run.actions.len(), 2);
        assert!(run.actions[0].0 < run.actions[1].0);
        match &run.actions[0].1 {
            OutAction::PutFromDevice {
                payload,
                target,
                match_bits,
                ..
            } => {
                assert_eq!(&payload[..], &[1, 2, 3]);
                assert_eq!(*target, 5);
                assert_eq!(*match_bits, 42);
            }
            a => panic!("unexpected action {a:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max_payload_size")]
    fn oversized_put_from_device_panics() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        let big = vec![0u8; 5000];
        let _ = c.put_from_device(&big, 1, 0, 0, 0);
    }

    #[test]
    fn dma_atomics() {
        let (mut dma, mut host, none) = setup();
        host.put_u64(8, 10).unwrap();
        let mut c = ctx(&mut dma, &mut host, &none);
        let before = c.dma_fetch_add_b(MemRegion::MeHost, 8, 5).unwrap();
        assert_eq!(before, 10);
        let mut cmp = 15;
        assert!(c.dma_cas_b(MemRegion::MeHost, 8, &mut cmp, 99).unwrap());
        // Each atomic blocks ~100 ns (2×50 ns latency).
        assert!(c.elapsed() > Time::from_ns(200));
        drop(c.finish());
        assert_eq!(host.get_u64(8).unwrap(), 99);
    }

    #[test]
    fn ct_ops_recorded() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        c.ct_inc(3, 1);
        c.ct_set(4, 10);
        c.yield_now();
        let run = c.finish();
        assert_eq!(run.actions.len(), 2);
        assert!(matches!(
            run.actions[0].1,
            OutAction::CtInc { ct: 3, by: 1 }
        ));
        assert!(matches!(
            run.actions[1].1,
            OutAction::CtSet { ct: 4, value: 10 }
        ));
    }

    #[test]
    fn competing_handlers_contend_on_dma() {
        let (mut dma, mut host, none) = setup();
        host.write(0, &[1u8; 8192]).unwrap();
        let t1 = {
            let mut c = HandlerCtx::new(
                Time::ZERO,
                0,
                4,
                &mut dma,
                &mut host,
                &none,
                (0, 1 << 16),
                (0, 0),
                4096,
            );
            c.dma_from_host_b(MemRegion::MeHost, 0, 4096).unwrap();
            c.finish().duration
        };
        // Second handler starts at the same time; its read queues behind the
        // first on the data path.
        let t2 = {
            let mut c = HandlerCtx::new(
                Time::ZERO,
                1,
                4,
                &mut dma,
                &mut host,
                &none,
                (0, 1 << 16),
                (0, 0),
                4096,
            );
            c.dma_from_host_b(MemRegion::MeHost, 4096, 4096).unwrap();
            c.finish().duration
        };
        assert!(t2 > t1, "t1={t1} t2={t2}");
    }

    /// One packet's worth of distinct bytes.
    fn page_packet() -> Bytes {
        Bytes::from((0..HOST_PAGE).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn whole_packet_page_deposit_is_adopted() {
        let (mut dma, mut host, _) = setup();
        let pkt = page_packet();
        let mut c = ctx(&mut dma, &mut host, &pkt);
        c.dma_to_host_b(MemRegion::MeHost, HOST_PAGE, &pkt).unwrap();
        c.dma_to_host_nb(MemRegion::MeHost, 3 * HOST_PAGE, &pkt)
            .unwrap();
        drop(c.finish());
        // Both pages took the packet's storage over: no page was
        // materialized or cloned, and each reads back as a view of it.
        assert_eq!(host.cow_clones(), 0);
        for abs in [HOST_PAGE, 3 * HOST_PAGE] {
            let got = host.read_bytes(abs, HOST_PAGE).unwrap();
            assert_eq!(got, pkt);
            assert_eq!(got.as_ptr(), pkt.as_ptr(), "page at {abs} not shared");
        }
    }

    #[test]
    fn partial_misaligned_and_foreign_deposits_copy() {
        let (mut dma, mut host, _) = setup();
        let pkt = page_packet();
        let foreign = pkt.to_vec();
        let mut c = ctx(&mut dma, &mut host, &pkt);
        // A sub-page piece of the packet at a page-aligned address.
        c.dma_to_host_b(MemRegion::MeHost, 0, &pkt[..100]).unwrap();
        // The whole packet at a misaligned address (straddles two pages).
        c.dma_to_host_b(MemRegion::MeHost, 2 * HOST_PAGE + 8, &pkt)
            .unwrap();
        // A whole page from a buffer that is not the packet.
        c.dma_to_host_nb(MemRegion::MeHost, 5 * HOST_PAGE, &foreign)
            .unwrap();
        drop(c.finish());
        // Every touched page was materialized and written by copy: one
        // page, two pages, one page.
        assert_eq!(host.cow_clones(), 4);
        assert_eq!(&host.read(0, 100).unwrap()[..], &pkt[..100]);
        assert_eq!(
            &host.read(2 * HOST_PAGE + 8, HOST_PAGE).unwrap()[..],
            &pkt[..]
        );
        let got = host.read_bytes(5 * HOST_PAGE, HOST_PAGE).unwrap();
        assert_eq!(&got[..], &foreign[..]);
        assert_ne!(got.as_ptr(), foreign.as_ptr());
        assert_ne!(got.as_ptr(), pkt.as_ptr());
    }

    #[test]
    fn put_from_device_shares_packet_bytes_and_copies_scratch() {
        let (mut dma, mut host, _) = setup();
        let pkt = page_packet();
        let scratch = [7u8; 16];
        let mut c = ctx(&mut dma, &mut host, &pkt);
        c.put_from_device(&pkt, 1, 0, 0, 0).unwrap();
        c.put_from_device_with_header(&pkt[64..128], 2, 0, 0, 0, UserHeader::empty())
            .unwrap();
        c.put_from_device(&scratch, 3, 0, 0, 0).unwrap();
        let run = c.finish();
        let payloads: Vec<&Bytes> = run
            .actions
            .iter()
            .map(|(_, a)| match a {
                OutAction::PutFromDevice { payload, .. } => payload,
                a => panic!("unexpected action {a:?}"),
            })
            .collect();
        assert_eq!(payloads[0], &pkt);
        assert_eq!(payloads[0].as_ptr(), pkt.as_ptr());
        assert_eq!(&payloads[1][..], &pkt[64..128]);
        assert_eq!(payloads[1].as_ptr(), pkt[64..].as_ptr());
        assert_eq!(&payloads[2][..], &scratch);
        assert_ne!(payloads[2].as_ptr(), scratch.as_ptr());
    }

    #[test]
    fn shared_and_copied_paths_take_the_same_time() {
        let pkt = page_packet();
        let foreign = pkt.to_vec();
        let run = |data: &[u8], packet: &Bytes| {
            let (mut dma, mut host, _) = setup();
            let mut c = ctx(&mut dma, &mut host, packet);
            c.put_from_device(data, 1, 0, 0, 0).unwrap();
            c.dma_to_host_b(MemRegion::MeHost, 0, data).unwrap();
            let h = c
                .dma_to_host_nb(MemRegion::MeHost, HOST_PAGE, data)
                .unwrap();
            c.dma_wait(h);
            let run = c.finish();
            (
                run.duration,
                run.compute,
                run.dma_blocked,
                host.cow_clones(),
            )
        };
        let shared = run(&pkt, &pkt);
        let copied = run(&foreign, &pkt);
        assert_eq!(shared.3, 0, "packet pages adopted");
        assert_eq!(copied.3, 2, "foreign pages copied");
        assert_eq!(shared.0, copied.0, "duration");
        assert_eq!(shared.1, copied.1, "compute");
        assert_eq!(shared.2, copied.2, "dma_blocked");
    }

    #[test]
    #[should_panic(expected = "PutFromDevice payload 5000 exceeds max_payload_size 4096")]
    fn oversized_put_from_device_with_header_panics() {
        let (mut dma, mut host, none) = setup();
        let mut c = ctx(&mut dma, &mut host, &none);
        let big = vec![0u8; 5000];
        let _ = c.put_from_device_with_header(&big, 1, 0, 0, 0, UserHeader::empty());
    }
}
