//! Reservation helpers for serialized and pooled resources.
//!
//! The machine model of the paper is full of resources that serialize work:
//! the NIC egress link (one packet at a time, gap g between them), the
//! matching unit (30 ns per header), the DMA engine (LogGP with a per-byte
//! gap), host memory bandwidth, and host CPU cores. All of them follow the
//! same "reserve the next free slot in virtual time" pattern, captured here.
//!
//! Reservations are made *in timestamp order of request* relative to the
//! event that issues them, which is the standard technique trace-driven
//! simulators like LogGOPSim use to model contention without simulating the
//! arbiter cycle by cycle.

use crate::time::{BytesPerTime, Time};

/// A resource that serves one job at a time (a link, a match unit, a DMA
/// channel). Jobs requested while busy queue up in virtual time.
#[derive(Debug, Clone, Default)]
pub struct SerialResource {
    next_free: Time,
    busy_total: Time,
    jobs: u64,
}

impl SerialResource {
    /// A resource idle since time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `duration`, starting no earlier than `earliest`.
    /// Returns the interval `(start, end)` that was granted.
    pub fn reserve(&mut self, earliest: Time, duration: Time) -> (Time, Time) {
        let start = earliest.max(self.next_free);
        let end = start + duration;
        self.next_free = end;
        self.busy_total += duration;
        self.jobs += 1;
        (start, end)
    }

    /// When the resource next becomes idle.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Total busy time accumulated (for utilization reports).
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization in [0,1] given the makespan of the run.
    pub fn utilization(&self, makespan: Time) -> f64 {
        if makespan == Time::ZERO {
            0.0
        } else {
            self.busy_total.ps() as f64 / makespan.ps() as f64
        }
    }
}

/// A pool of `k` identical serial servers (HPU cores, host CPU cores).
/// Jobs take the earliest-available server; ties go to the lowest index so
/// schedules are deterministic.
#[derive(Debug, Clone)]
pub struct PooledResource {
    servers: Vec<SerialResource>,
}

impl PooledResource {
    /// A pool with `k` servers, all idle at time zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a resource pool needs at least one server");
        PooledResource {
            servers: vec![SerialResource::new(); k],
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Reserve one server for `duration` starting no earlier than `earliest`.
    /// Returns `(server_index, start, end)`.
    pub fn reserve(&mut self, earliest: Time, duration: Time) -> (usize, Time, Time) {
        let idx = self.earliest_server();
        let (start, end) = self.servers[idx].reserve(earliest, duration);
        (idx, start, end)
    }

    /// Index of the server that frees up first (lowest index on ties).
    pub fn earliest_server(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.servers.iter().enumerate().skip(1) {
            if s.next_free() < self.servers[best].next_free() {
                best = i;
            }
        }
        best
    }

    /// When the next server becomes free.
    pub fn next_free(&self) -> Time {
        self.servers[self.earliest_server()].next_free()
    }

    /// When a *specific* server becomes free.
    pub fn server_next_free(&self, idx: usize) -> Time {
        self.servers[idx].next_free()
    }

    /// Reserve a specific server (used when a handler is pinned to a core:
    /// "handlers may not migrate between HPUs while they are running", §3.2.2).
    pub fn reserve_on(&mut self, idx: usize, earliest: Time, duration: Time) -> (Time, Time) {
        self.servers[idx].reserve(earliest, duration)
    }

    /// Total busy time across servers.
    pub fn busy_total(&self) -> Time {
        self.servers.iter().map(|s| s.busy_total()).sum()
    }

    /// Jobs served across servers.
    pub fn jobs(&self) -> u64 {
        self.servers.iter().map(|s| s.jobs()).sum()
    }

    /// Mean utilization across servers over `makespan`.
    pub fn utilization(&self, makespan: Time) -> f64 {
        if makespan == Time::ZERO {
            return 0.0;
        }
        self.busy_total().ps() as f64 / (makespan.ps() as f64 * self.servers.len() as f64)
    }
}

/// A serial resource that back-fills gaps: a reservation takes the first
/// idle interval of sufficient length at or after `earliest`, rather than
/// queueing behind the latest reservation.
///
/// This matters when reservations are issued out of virtual-time order —
/// e.g. a handler computed early in event order reserves the DMA channel
/// far in the future (after its compute phase), and a handler computed
/// later needs the channel *earlier*. A plain [`SerialResource`] would
/// serialize them in issue order, inventing contention that a real FIFO
/// arbiter would never see.
///
/// The busy list is never pruned, and its access pattern is tail-heavy:
/// in the Fig. 7a sweep at 8 B blocks (integrated NIC) the NIC→host DMA
/// channel grows to one interval per write (524,288 entries), yet inserts
/// land on average 368 entries from the tail and at most 1,494. [`reserve`]
/// therefore gallops back from the tail to find its insertion point. The
/// search costs O(log d) for a landing d entries from the tail, one probe
/// at the tail, instead of O(log n) over the whole list; the insert still
/// shifts the d entries behind it. A tail landing thus costs about what
/// [`reserve_append`] does.
///
/// [`reserve`]: IntervalResource::reserve
/// [`reserve_append`]: IntervalResource::reserve_append
#[derive(Debug, Clone, Default)]
pub struct IntervalResource {
    /// Busy intervals, sorted by start, non-overlapping.
    busy: Vec<(Time, Time)>,
    busy_total: Time,
    jobs: u64,
}

impl IntervalResource {
    /// An idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the first gap of `duration` starting at or after `earliest`.
    /// Returns the granted `(start, end)`.
    pub fn reserve(&mut self, earliest: Time, duration: Time) -> (Time, Time) {
        self.jobs += 1;
        self.busy_total += duration;
        if duration == Time::ZERO {
            return (earliest, earliest);
        }
        let mut cursor = earliest;
        let mut idx = self.first_ending_after(earliest);
        loop {
            let gap_end = self.busy.get(idx).map(|&(s, _)| s).unwrap_or(Time::MAX);
            let start = cursor.max(
                idx.checked_sub(1)
                    .map(|i| self.busy[i].1)
                    .unwrap_or(Time::ZERO),
            );
            if gap_end.saturating_sub(start) >= duration {
                let end = start + duration;
                self.busy.insert(idx, (start, end));
                self.coalesce_around(idx);
                return (start, end);
            }
            cursor = self.busy[idx].1;
            idx += 1;
        }
    }

    /// Index of the first busy interval ending after `t`: the
    /// `partition_point` of `end <= t`, found by galloping back from the
    /// tail (probes 1, 2, 4, … entries back) and then binary-searching the
    /// last bracket.
    fn first_ending_after(&self, t: Time) -> usize {
        // Every interval at or after `hi` ends after `t`.
        let mut hi = self.busy.len();
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            if self.busy[probe].1 <= t {
                let lo = probe + 1;
                return lo + self.busy[lo..hi].partition_point(|&(_, end)| end <= t);
            }
            hi = probe;
            step *= 2;
        }
        0
    }

    fn coalesce_around(&mut self, idx: usize) {
        // Merge with the next interval if adjacent.
        if idx + 1 < self.busy.len() && self.busy[idx].1 == self.busy[idx + 1].0 {
            let next_end = self.busy[idx + 1].1;
            self.busy[idx].1 = next_end;
            self.busy.remove(idx + 1);
        }
        // Merge with the previous interval if adjacent.
        if idx > 0 && self.busy[idx - 1].1 == self.busy[idx].0 {
            self.busy[idx - 1].1 = self.busy[idx].1;
            self.busy.remove(idx);
        }
    }

    /// Tail-append fast path for batched reservation runs: grant
    /// `[max(earliest, horizon), …)` directly, extending the final busy
    /// interval in place instead of gap-searching.
    ///
    /// This is **only** equivalent to [`IntervalResource::reserve`] when
    /// the caller has established that `reserve` would land at the tail —
    /// i.e. no interior gap at or after `earliest` can hold `duration`.
    /// The batched DMA writer (`spin-hpu`) proves this per run: once one
    /// reservation of duration `d` is granted at the tail, every interior
    /// gap at or after its `earliest` is `< d`, so a subsequent request
    /// with the same duration and an `earliest` no smaller than the
    /// previous one must land at the (new) tail too. Requests that break
    /// the induction (shorter final packet, earlier issue) fall back to
    /// the full `reserve`.
    pub fn reserve_append(&mut self, earliest: Time, duration: Time) -> (Time, Time) {
        self.jobs += 1;
        self.busy_total += duration;
        if duration == Time::ZERO {
            return (earliest, earliest);
        }
        let start = earliest.max(self.horizon());
        let end = start + duration;
        match self.busy.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => self.busy.push((start, end)),
        }
        (start, end)
    }

    /// Total busy time.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// The end of the last reservation (an upper bound on "next free").
    pub fn horizon(&self) -> Time {
        self.busy.last().map(|&(_, e)| e).unwrap_or(Time::ZERO)
    }
}

/// A bandwidth-serialized channel: moving `n` bytes occupies the channel for
/// `n * G` (plus an optional fixed latency the caller adds separately).
/// Models the DMA engine data path (§4.3) and host memory bandwidth (§4.2).
#[derive(Debug, Clone)]
pub struct BandwidthChannel {
    resource: SerialResource,
    rate: BytesPerTime,
    bytes_total: u64,
}

impl BandwidthChannel {
    /// A channel with the given per-byte rate.
    pub fn new(rate: BytesPerTime) -> Self {
        BandwidthChannel {
            resource: SerialResource::new(),
            rate,
            bytes_total: 0,
        }
    }

    /// The channel's configured rate.
    pub fn rate(&self) -> BytesPerTime {
        self.rate
    }

    /// Reserve the channel to move `bytes`, starting no earlier than
    /// `earliest`. Returns `(start, end)`; `end - start == bytes * G`.
    pub fn reserve(&mut self, earliest: Time, bytes: usize) -> (Time, Time) {
        self.bytes_total += bytes as u64;
        self.resource.reserve(earliest, self.rate.transfer(bytes))
    }

    /// When the channel next becomes idle.
    pub fn next_free(&self) -> Time {
        self.resource.next_free()
    }

    /// Total bytes moved (for memory-traffic reports, cf. §4.4.2's claim that
    /// sPIN halves host memory load vs. RDMA for accumulate).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Busy time accumulated.
    pub fn busy_total(&self) -> Time {
        self.resource.busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::BytesPerTime;

    #[test]
    fn serial_resource_serializes() {
        let mut r = SerialResource::new();
        let (s1, e1) = r.reserve(Time::from_ns(0), Time::from_ns(10));
        let (s2, e2) = r.reserve(Time::from_ns(0), Time::from_ns(10));
        assert_eq!((s1, e1), (Time::from_ns(0), Time::from_ns(10)));
        assert_eq!((s2, e2), (Time::from_ns(10), Time::from_ns(20)));
        // A later request after the queue drained starts immediately.
        let (s3, _) = r.reserve(Time::from_ns(100), Time::from_ns(5));
        assert_eq!(s3, Time::from_ns(100));
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_total(), Time::from_ns(25));
    }

    #[test]
    fn pool_spreads_load() {
        let mut p = PooledResource::new(2);
        let (i1, s1, _) = p.reserve(Time::ZERO, Time::from_ns(10));
        let (i2, s2, _) = p.reserve(Time::ZERO, Time::from_ns(10));
        let (i3, s3, _) = p.reserve(Time::ZERO, Time::from_ns(10));
        assert_eq!((i1, s1), (0, Time::ZERO));
        assert_eq!((i2, s2), (1, Time::ZERO));
        // Third job queues behind the first server.
        assert_eq!((i3, s3), (0, Time::from_ns(10)));
    }

    #[test]
    fn pool_pinned_reservation() {
        let mut p = PooledResource::new(4);
        p.reserve_on(2, Time::ZERO, Time::from_ns(50));
        assert_eq!(p.server_next_free(2), Time::from_ns(50));
        assert_eq!(p.server_next_free(0), Time::ZERO);
        let (idx, _, _) = p.reserve(Time::ZERO, Time::from_ns(1));
        assert_eq!(idx, 0);
    }

    #[test]
    fn pool_utilization() {
        let mut p = PooledResource::new(2);
        p.reserve(Time::ZERO, Time::from_ns(10));
        p.reserve(Time::ZERO, Time::from_ns(10));
        assert!((p.utilization(Time::from_ns(10)) - 1.0).abs() < 1e-9);
        assert!((p.utilization(Time::from_ns(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn interval_resource_backfills_gaps() {
        let mut r = IntervalResource::new();
        // A "future" reservation first...
        let (s1, e1) = r.reserve(Time::from_ns(1000), Time::from_ns(100));
        assert_eq!((s1, e1), (Time::from_ns(1000), Time::from_ns(1100)));
        // ...must not block an earlier request that fits before it.
        let (s2, e2) = r.reserve(Time::from_ns(10), Time::from_ns(100));
        assert_eq!((s2, e2), (Time::from_ns(10), Time::from_ns(110)));
        // A request that does not fit in the gap goes after.
        let (s3, _) = r.reserve(Time::from_ns(950), Time::from_ns(200));
        assert_eq!(s3, Time::from_ns(1100));
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_total(), Time::from_ns(400));
    }

    #[test]
    fn interval_resource_serializes_overlapping() {
        let mut r = IntervalResource::new();
        let mut ends = Vec::new();
        for _ in 0..10 {
            let (_, e) = r.reserve(Time::ZERO, Time::from_ns(10));
            ends.push(e);
        }
        // All requested at t=0: they stack back to back.
        assert_eq!(ends.last().copied(), Some(Time::from_ns(100)));
        assert_eq!(r.horizon(), Time::from_ns(100));
    }

    #[test]
    fn interval_resource_coalesces() {
        let mut r = IntervalResource::new();
        for i in 0..100u64 {
            r.reserve(Time::from_ns(i * 10), Time::from_ns(10));
        }
        // All adjacent: should have merged into one interval.
        assert_eq!(r.busy.len(), 1);
    }

    #[test]
    fn interval_resource_exact_fit() {
        let mut r = IntervalResource::new();
        r.reserve(Time::from_ns(0), Time::from_ns(10));
        r.reserve(Time::from_ns(20), Time::from_ns(10));
        // Exactly 10 ns gap at [10,20).
        let (s, e) = r.reserve(Time::ZERO, Time::from_ns(10));
        assert_eq!((s, e), (Time::from_ns(10), Time::from_ns(20)));
        assert_eq!(r.busy.len(), 1, "fully coalesced");
    }

    #[test]
    fn reserve_append_matches_reserve_under_run_conditions() {
        // Pre-load both copies with an identical messy history (future
        // holes, back-fills), then issue runs that satisfy the tail-append
        // induction: first grant at the tail, equal durations, ascending
        // issues. Grants and busy lists must match `reserve` exactly.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rng = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..200 {
            let mut a = IntervalResource::new();
            let mut b = IntervalResource::new();
            let mut clock = 0u64;
            for _ in 0..rng(8) {
                let at = Time::from_ns(rng(500));
                let d = Time::from_ns(rng(40) + 1);
                assert_eq!(a.reserve(at, d), b.reserve(at, d));
                clock = clock.max(a.horizon().ps() / crate::time::NS);
            }
            // The run: the first reservation goes through `reserve` on
            // both (the fast path requires a tail-landing witness) …
            let d = Time::from_ns(rng(30) + 1);
            let mut issue = Time::from_ns(clock + rng(100));
            let (s_a, e_a) = a.reserve(issue, d);
            let (s_b, e_b) = b.reserve(issue, d);
            assert_eq!((s_a, e_a), (s_b, e_b));
            if e_a < a.horizon() {
                continue; // back-filled, not a tail landing; the fast
                          // path wouldn't engage on this run
            }
            // … then equal-duration ascending-issue packets take the
            // append path on `a` and the full search on `b`.
            for _ in 0..rng(20) + 1 {
                issue += Time::from_ns(rng(10));
                assert_eq!(a.reserve_append(issue, d), b.reserve(issue, d));
            }
            assert_eq!(a.busy, b.busy, "busy lists diverged");
            assert_eq!(a.busy_total(), b.busy_total());
            assert_eq!(a.jobs(), b.jobs());
        }
    }

    #[test]
    fn reserve_append_zero_duration_and_gap_jump() {
        let mut r = IntervalResource::new();
        assert_eq!(
            r.reserve_append(Time::from_ns(5), Time::ZERO),
            (Time::from_ns(5), Time::from_ns(5))
        );
        assert!(r.busy.is_empty(), "zero-duration leaves no interval");
        r.reserve_append(Time::from_ns(10), Time::from_ns(10));
        // An issue past the horizon opens a new tail interval…
        r.reserve_append(Time::from_ns(100), Time::from_ns(10));
        assert_eq!(
            r.busy,
            vec![
                (Time::from_ns(10), Time::from_ns(20)),
                (Time::from_ns(100), Time::from_ns(110))
            ]
        );
        // …and a back-to-back one extends it in place.
        r.reserve_append(Time::from_ns(50), Time::from_ns(10));
        assert_eq!(
            r.busy.last(),
            Some(&(Time::from_ns(100), Time::from_ns(120)))
        );
        assert_eq!(r.horizon(), Time::from_ns(120));
    }

    /// The flat reference `reserve`: a `partition_point` over the whole
    /// busy list, then the same gap walk and coalescing.
    #[derive(Default)]
    struct FlatIntervals {
        busy: Vec<(Time, Time)>,
        busy_total: Time,
        jobs: u64,
    }

    impl FlatIntervals {
        fn reserve(&mut self, earliest: Time, duration: Time) -> (Time, Time) {
            self.jobs += 1;
            self.busy_total += duration;
            if duration == Time::ZERO {
                return (earliest, earliest);
            }
            let mut cursor = earliest;
            let mut idx = self.busy.partition_point(|&(_, end)| end <= earliest);
            loop {
                let gap_end = self.busy.get(idx).map(|&(s, _)| s).unwrap_or(Time::MAX);
                let start = cursor.max(idx.checked_sub(1).map_or(Time::ZERO, |i| self.busy[i].1));
                if gap_end.saturating_sub(start) >= duration {
                    let end = start + duration;
                    self.busy.insert(idx, (start, end));
                    if idx + 1 < self.busy.len() && self.busy[idx].1 == self.busy[idx + 1].0 {
                        self.busy[idx].1 = self.busy.remove(idx + 1).1;
                    }
                    if idx > 0 && self.busy[idx - 1].1 == self.busy[idx].0 {
                        self.busy[idx - 1].1 = self.busy.remove(idx).1;
                    }
                    return (start, end);
                }
                cursor = self.busy[idx].1;
                idx += 1;
            }
        }

        fn horizon(&self) -> Time {
            self.busy.last().map_or(Time::ZERO, |&(_, e)| e)
        }
    }

    #[test]
    fn galloping_reserve_matches_flat_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..3 {
            let mut fast = IntervalResource::new();
            let mut flat = FlatIntervals::default();
            let mut last_earliest = Time::ZERO;
            let mut ops = 0u64;
            // Grow each list past 10k intervals; the in-order requests
            // leave holes so that most of them stay separate intervals.
            while fast.busy.len() < 10_000 {
                let horizon = fast.horizon().ps();
                let earliest = Time::from_ps(match rng(16) {
                    // In order: at or just past the horizon.
                    0..=7 => horizon + rng(4) * rng(3_000),
                    // Near the tail: a short way behind the horizon.
                    8..=10 => horizon.saturating_sub(rng(50_000)),
                    // A gap-fill far behind the horizon.
                    11..=12 => rng(horizon + 1),
                    // The previous request's `earliest` again.
                    _ => last_earliest.ps(),
                });
                let duration = match rng(10) {
                    0 => Time::ZERO,
                    _ => Time::from_ps(1 + rng(2_000)),
                };
                last_earliest = earliest;
                assert_eq!(
                    fast.reserve(earliest, duration),
                    flat.reserve(earliest, duration),
                    "grant {ops} diverged (earliest {earliest}, duration {duration})"
                );
                assert_eq!(fast.horizon(), flat.horizon());
                ops += 1;
                if ops.is_multiple_of(4_096) {
                    assert_eq!(fast.busy, flat.busy, "busy lists diverged at {ops}");
                }
            }
            assert_eq!(fast.busy, flat.busy);
            assert_eq!(fast.busy_total(), flat.busy_total);
            assert_eq!(fast.jobs(), flat.jobs);
            assert_eq!(fast.horizon(), flat.horizon());
        }
    }

    #[test]
    fn bandwidth_channel_accumulates_bytes() {
        // 64 GiB/s PCIe-4 x32 from §4.3.
        let mut c = BandwidthChannel::new(BytesPerTime::from_gib_per_sec(64.0));
        let (s, e) = c.reserve(Time::ZERO, 4096);
        assert_eq!(s, Time::ZERO);
        // 4096 B at 64 GiB/s ≈ 59.6 ns.
        assert!((e.ns() - 59.6).abs() < 0.2, "{e}");
        c.reserve(Time::ZERO, 4096);
        assert_eq!(c.bytes_total(), 8192);
        assert_eq!(c.next_free(), c.resource.next_free());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        PooledResource::new(0);
    }
}
