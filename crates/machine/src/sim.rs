//! The cycle-level out-of-order core simulator.
//!
//! Model (mirroring the sketch in paper Figure 1 / §2):
//!
//! * **Rename** — instructions enter in program order; each read operand
//!   captures the index of its producing instruction (the most recent
//!   earlier writer of that register). Write-after-read and
//!   write-after-write hazards do not exist: the register management
//!   engine renames them away.
//! * **Dispatch** — up to `fetch_width` µops per cycle enter the
//!   scheduler window (capacity `window_size` µops). An instruction's
//!   µops enter together with it, in order.
//! * **Issue** — each cycle the scheduler scans waiting µops oldest-first
//!   and issues every µop whose operands are ready to a free port from
//!   its port set, trying ports in rotation from `cycle % num_ports` (a
//!   greedy, non-optimal policy — real schedulers are not optimal either,
//!   which is exactly the model error the paper observes in Figure 6 for
//!   longer experiments). Ports accept one µop per cycle; a µop with
//!   `blocking > 1` occupies its port for several cycles (dividers).
//! * **Complete** — an instruction's results become available `latency`
//!   cycles after its last µop issued.
//!
//! Throughput is the steady-state number of cycles per kernel iteration,
//! measured between iteration boundaries after a warm-up phase
//! (paper Definition 1).
//!
//! # How the schedule is computed
//!
//! The schedule is exactly the one a loop that rescans the whole window
//! every cycle produces (that loop survives, frozen, as the test
//! reference in `tests/sim_reference.rs`); it is just computed with less
//! work:
//!
//! * **Event-driven issue.** A bitmask of free ports is ANDed with each
//!   µop's port mask, and the rotation rule picks the port with a shift
//!   and a trailing-zero count. Each instruction caches the cycle its
//!   operands are ready once all its producers' completion cycles are
//!   known. Issued µops are compacted out of the window in the same pass,
//!   which stops as soon as no port the kernel uses is free.
//! * **Idle cycles.** After a cycle that issued nothing, while the front
//!   end is stalled (window full or instruction stream exhausted), the
//!   simulator jumps to the earliest cycle at which some waiting µop has
//!   both its operands and a free port: nothing can change before then.
//! * **Steady-state fast-forward.** At every iteration boundary of the
//!   fetch stream the simulator compares the *relative* machine state
//!   exactly against the states seen at earlier boundaries: the window
//!   µops and in-flight instructions with indices relative to the fetch
//!   point, completion and port-free times relative to the current cycle
//!   and clamped at 0, the rename table, the fetch cursor's position in
//!   the loop body and `cycle % num_ports`. Nothing else influences the
//!   future, so when a state recurs after `P` iterations and `D` cycles,
//!   the machine repeats that stretch verbatim for as long as the
//!   instruction stream lasts: every iteration `j` that ended in it ends
//!   again as iteration `j + P`, exactly `D` cycles later. The simulator
//!   jumps `m·P` iterations ahead, records the skipped iteration ends
//!   arithmetically, and simulates the rest — at least one iteration of
//!   instruction stream — cycle by cycle, so every iteration end and
//!   `total_cycles` stay exact.
//!
//! The instruction table, the window and the snapshot store are buffers
//! reused across calls on the same thread; the store keeps the states of
//! the last 32 boundaries, so periods of up to 32 iterations are found.

use crate::platform::Platform;
use pmevo_isa::{Kernel, Reg, RegClass};
use std::cell::RefCell;

/// Result of simulating a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Steady-state cycles per kernel iteration.
    pub cycles_per_iter: f64,
    /// Steady-state cycles per *experiment instance* (divided by the
    /// kernel's unroll factor) — the paper's throughput `t*(e)`.
    pub cycles_per_instance: f64,
    /// Total simulated cycles, including warm-up.
    pub total_cycles: u64,
}

/// "No producer" in dependency and rename-table slots.
const NO_DEP: usize = usize::MAX;
/// A cycle not known yet: the completion of an instruction with µops
/// still to issue, and the operand readiness that waits on one.
const UNKNOWN: u64 = u64::MAX;
/// Snapshot-key tag of a producer still in flight.
const IN_FLIGHT: u64 = 1 << 63;
/// Rename-table slots: 64 per register class, indices taken modulo 64.
const SLOTS: usize = 128;
/// Capacity of the snapshot store, in iteration boundaries.
const SNAPSHOTS: usize = 32;

/// One µop of a loop-body instruction.
#[derive(Debug, Clone, Copy)]
struct Uop {
    /// Compact port mask.
    ports: u64,
    /// Port-blocking duration.
    blocking: u32,
}

/// A loop-body instruction, resolved against the platform.
#[derive(Debug, Clone, Copy)]
struct BodyInst {
    /// Offset of its µops in [`Buffers::uops`].
    first_uop: usize,
    num_uops: u32,
    /// Offset of its read slots, followed by its write slots, in
    /// [`Buffers::slots`].
    first_slot: usize,
    num_reads: usize,
    num_writes: usize,
    /// Result latency.
    latency: u32,
}

/// A µop waiting in the scheduler window.
#[derive(Debug, Clone, Copy)]
struct WindowUop {
    /// Index into the dynamic instruction stream.
    inst: usize,
    ports: u64,
    blocking: u32,
}

/// Per-dynamic-instruction bookkeeping.
#[derive(Debug, Clone, Copy)]
struct InstState {
    /// Producer instruction indices for each read operand (compressed:
    /// up to 3 tracked producers; extra reads fold into the last slot).
    deps: [usize; 3],
    /// Number of µops not yet issued.
    uops_left: u32,
    /// Result latency.
    latency: u32,
    /// Cycle from which all operands are available (`UNKNOWN` until
    /// every producer's completion is known).
    ready: u64,
    /// Cycle when results are available (`UNKNOWN` until the last µop
    /// issues).
    complete: u64,
}

/// A relative machine state seen at an iteration boundary.
#[derive(Debug, Default)]
struct Snapshot {
    hash: u64,
    key: Vec<u64>,
    cursor: usize,
    cycle: u64,
    /// Length of the iteration-end log when the state was seen.
    ends: usize,
}

/// Buffers reused across calls on one thread.
#[derive(Debug, Default)]
struct Buffers {
    body: Vec<BodyInst>,
    uops: Vec<Uop>,
    slots: Vec<usize>,
    /// Distinct rename-table slots the body writes, sorted.
    written: Vec<usize>,
    /// Dynamic instructions from [`Sim::base`] on.
    insts: Vec<InstState>,
    window: Vec<WindowUop>,
    /// Cycle at which the last instruction of each iteration finished
    /// issuing; used for the steady-state measurement.
    iter_end: Vec<u64>,
    /// Iteration indices in the order their ends happened.
    ends: Vec<usize>,
    key: Vec<u64>,
    snapshots: Vec<Snapshot>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// Simulates `iters` iterations of `kernel` on `platform` and reports the
/// steady-state throughput measured over the post-warm-up iterations:
/// the span from the end of iteration `warmup` to the end of the last
/// iteration, divided by the number of iterations it covers.
///
/// `warmup` iterations are excluded from the measurement; the defaults
/// used by [`Measurer`](crate::Measurer) are generous enough for every
/// built-in platform.
///
/// The simulator reads a kernel instruction's form only through its
/// ground-truth decomposition and [`ExecParams`](crate::platform::ExecParams),
/// and the platform only through those tables, its port count, fetch
/// width and window size. Forms that agree on all of them are
/// indistinguishable here, which [`SimBackend`](crate::SimBackend)'s
/// measurement memo rests on.
///
/// # Panics
///
/// Panics if the kernel is empty, `iters < warmup + 2` (the measured span
/// must cover at least one iteration), the kernel references forms
/// outside the platform's ISA, or a form has no µops.
pub fn simulate_kernel(platform: &Platform, kernel: &Kernel, warmup: u32, iters: u32) -> SimResult {
    assert!(!kernel.is_empty(), "cannot simulate an empty kernel");
    assert!(
        u64::from(iters) >= u64::from(warmup) + 2,
        "need iters >= warmup + 2: the measured span must cover at least one iteration"
    );
    BUFFERS.with(|buffers| {
        let mut buffers = buffers.borrow_mut();
        let mut sim = Sim::new(platform, kernel, iters, &mut buffers);
        sim.run();
        let total_cycles = sim.cycle;
        let iter_end = &buffers.iter_end;
        let (w, n) = (warmup as usize, iters as usize);
        let span = iter_end[n - 1].saturating_sub(iter_end[w]) as f64;
        let cycles_per_iter = span / (n - 1 - w) as f64;
        let cycles_per_instance = cycles_per_iter / f64::from(kernel.instances_per_iter());
        SimResult {
            cycles_per_iter,
            cycles_per_instance,
            total_cycles,
        }
    })
}

fn reg_slot(r: Reg) -> usize {
    let class = match r.class {
        RegClass::Gpr => 0,
        RegClass::Vec => 1,
    };
    class * 64 + r.index as usize % 64
}

/// One simulation: machine state over the thread's buffers.
struct Sim<'b> {
    b: &'b mut Buffers,
    body_len: usize,
    total_insts: usize,
    iters: usize,
    num_ports: usize,
    fetch_width: usize,
    window_size: usize,
    /// Ports some µop of the kernel can use.
    kernel_ports: u64,
    port_free_at: [u64; 64],
    /// Last writer instruction index per rename-table slot.
    last_writer: [usize; SLOTS],
    cycle: u64,
    /// Next dynamic instruction to fetch and rename, its position in the
    /// loop body, and the next µop within it.
    cursor: usize,
    body_pos: usize,
    uop_pos: u32,
    /// Dynamic index of `b.insts[0]`.
    base: usize,
    iters_done: usize,
    /// Whether iteration boundaries are still compared for a repeat.
    watching: bool,
    /// Valid snapshots (`b.snapshots[..stored]`) and the next slot to
    /// overwrite.
    stored: usize,
    next_slot: usize,
}

impl<'b> Sim<'b> {
    fn new(platform: &Platform, kernel: &Kernel, iters: u32, b: &'b mut Buffers) -> Self {
        b.body.clear();
        b.uops.clear();
        b.slots.clear();
        b.written.clear();
        let mut kernel_ports = 0;
        for ki in kernel.insts() {
            let params = platform.exec_params(ki.inst);
            let first_uop = b.uops.len();
            for e in platform.ground_truth().decomposition(ki.inst) {
                let uop = Uop {
                    ports: e.ports.mask(),
                    blocking: params.blocking,
                };
                b.uops.extend(std::iter::repeat_n(uop, e.count as usize));
                kernel_ports |= uop.ports;
            }
            let num_uops = (b.uops.len() - first_uop) as u32;
            assert!(num_uops > 0, "form {} has no µops", ki.inst.0);
            let first_slot = b.slots.len();
            b.slots
                .extend(ki.reads.iter().chain(&ki.writes).map(|&r| reg_slot(r)));
            b.written.extend(ki.writes.iter().map(|&r| reg_slot(r)));
            b.body.push(BodyInst {
                first_uop,
                num_uops,
                first_slot,
                num_reads: ki.reads.len(),
                num_writes: ki.writes.len(),
                latency: params.latency,
            });
        }
        b.written.sort_unstable();
        b.written.dedup();
        b.insts.clear();
        b.window.clear();
        b.ends.clear();
        b.iter_end.clear();
        b.iter_end.resize(iters as usize, 0);
        Sim {
            body_len: kernel.len(),
            total_insts: kernel.len() * iters as usize,
            iters: iters as usize,
            num_ports: platform.num_ports(),
            fetch_width: platform.fetch_width() as usize,
            window_size: platform.window_size() as usize,
            kernel_ports,
            port_free_at: [0; 64],
            last_writer: [NO_DEP; SLOTS],
            cycle: 0,
            cursor: 0,
            body_pos: 0,
            uop_pos: 0,
            base: 0,
            iters_done: 0,
            watching: true,
            stored: 0,
            next_slot: 0,
            b,
        }
    }

    fn run(&mut self) {
        loop {
            let issued = self.issue();
            let crossed = self.fetch();
            self.cycle += 1;
            if self.iters_done == self.iters {
                return;
            }
            if crossed && self.watching {
                self.at_boundary();
            }
            if !issued
                && (self.b.window.len() >= self.window_size || self.cursor >= self.total_insts)
            {
                self.skip_idle();
            }
        }
    }

    /// Issue: oldest-first greedy over waiting µops. Returns whether any
    /// µop issued.
    fn issue(&mut self) -> bool {
        let now = self.cycle;
        let mut free = 0u64;
        for (p, &at) in self.port_free_at[..self.num_ports].iter().enumerate() {
            if at <= now {
                free |= 1 << p;
            }
        }
        free &= self.kernel_ports;
        if free == 0 {
            return false;
        }
        // Ports are tried in rotation from `start`, so the starting port
        // does not bias issue toward low port numbers.
        let start = (now % self.num_ports as u64) as u32;
        let len = self.b.window.len();
        let (mut kept, mut i) = (0, 0);
        while i < len {
            let uop = self.b.window[i];
            i += 1;
            let candidates = uop.ports & free;
            if candidates != 0 && self.ready_at(uop.inst) <= now {
                let from_start = candidates >> start;
                let p = if from_start != 0 {
                    start + from_start.trailing_zeros()
                } else {
                    candidates.trailing_zeros()
                } as usize;
                let until = now + u64::from(uop.blocking);
                self.port_free_at[p] = until;
                if until > now {
                    free &= !(1 << p);
                }
                self.retire_uop(uop.inst, now);
                if free == 0 {
                    break;
                }
            } else {
                self.b.window[kept] = uop;
                kept += 1;
            }
        }
        if kept == i {
            return false;
        }
        self.b.window.copy_within(i..len, kept);
        self.b.window.truncate(kept + len - i);
        true
    }

    /// The cycle from which `inst`'s operands are ready, or `UNKNOWN`
    /// while some producer still has µops to issue.
    fn ready_at(&mut self, inst: usize) -> u64 {
        let base = self.base;
        let insts = &mut self.b.insts;
        let mut ready = insts[inst - base].ready;
        if ready == UNKNOWN {
            ready = 0;
            for d in insts[inst - base].deps {
                if d != NO_DEP {
                    let complete = insts[d - base].complete;
                    if complete == UNKNOWN {
                        return UNKNOWN;
                    }
                    ready = ready.max(complete);
                }
            }
            insts[inst - base].ready = ready;
        }
        ready
    }

    fn retire_uop(&mut self, inst: usize, now: u64) {
        let st = &mut self.b.insts[inst - self.base];
        st.uops_left -= 1;
        if st.uops_left == 0 {
            st.complete = now + u64::from(st.latency);
            // Iteration boundary: the last instruction of an iteration
            // finished issuing.
            if inst % self.body_len == self.body_len - 1 {
                let iter = inst / self.body_len;
                self.b.iter_end[iter] = now;
                self.b.ends.push(iter);
                self.iters_done += 1;
            }
        }
    }

    /// Fetch/rename: up to `fetch_width` µops into the window. Returns
    /// whether the fetch cursor crossed an iteration boundary.
    fn fetch(&mut self) -> bool {
        let mut crossed = false;
        let mut fetched = 0;
        while fetched < self.fetch_width
            && self.b.window.len() < self.window_size
            && self.cursor < self.total_insts
        {
            let inst = self.b.body[self.body_pos];
            if self.uop_pos == 0 {
                self.rename(inst);
            }
            let uop = self.b.uops[inst.first_uop + self.uop_pos as usize];
            self.b.window.push(WindowUop {
                inst: self.cursor,
                ports: uop.ports,
                blocking: uop.blocking,
            });
            fetched += 1;
            self.uop_pos += 1;
            if self.uop_pos == inst.num_uops {
                self.uop_pos = 0;
                self.cursor += 1;
                self.body_pos += 1;
                if self.body_pos == self.body_len {
                    self.body_pos = 0;
                    crossed = true;
                }
            }
        }
        crossed
    }

    /// Renames the instruction at the fetch cursor: captures its RAW
    /// producers and becomes the last writer of its destinations.
    fn rename(&mut self, inst: BodyInst) {
        let reads = &self.b.slots[inst.first_slot..][..inst.num_reads];
        let mut deps = [NO_DEP; 3];
        let mut extra = NO_DEP;
        for (k, &slot) in reads.iter().enumerate() {
            let producer = self.last_writer[slot];
            if k < 3 {
                deps[k] = producer;
            } else if producer != NO_DEP && (extra == NO_DEP || producer > extra) {
                extra = producer;
            }
        }
        if extra != NO_DEP {
            // Fold surplus reads into the last tracked slot.
            deps[2] = if deps[2] == NO_DEP {
                extra
            } else {
                deps[2].max(extra)
            };
        }
        self.b.insts.push(InstState {
            deps,
            uops_left: inst.num_uops,
            latency: inst.latency,
            ready: UNKNOWN,
            complete: UNKNOWN,
        });
        let writes = &self.b.slots[inst.first_slot + inst.num_reads..][..inst.num_writes];
        for &slot in writes {
            self.last_writer[slot] = self.cursor;
        }
    }

    /// Jumps to the earliest cycle at which some waiting µop has its
    /// operands and a free port. Only called while the front end is
    /// stalled, so until then nothing issues and nothing is fetched; a µop
    /// whose readiness is unknown waits on a producer that has to issue
    /// first.
    fn skip_idle(&mut self) {
        let mut next = UNKNOWN;
        for i in 0..self.b.window.len() {
            let uop = self.b.window[i];
            let ready = self.ready_at(uop.inst);
            if ready == UNKNOWN {
                continue;
            }
            let mut port = UNKNOWN;
            let mut ports = uop.ports;
            while ports != 0 {
                port = port.min(self.port_free_at[ports.trailing_zeros() as usize]);
                ports &= ports - 1;
            }
            next = next.min(ready.max(port));
        }
        if next != UNKNOWN && next > self.cycle {
            self.cycle = next;
        }
    }

    /// At an iteration boundary of the fetch stream: looks the relative
    /// machine state up among earlier boundaries and fast-forwards on a
    /// repeat, or remembers it.
    fn at_boundary(&mut self) {
        // A jump covers at least one iteration and leaves at least one
        // iteration of stream to simulate, so later boundaries cannot pay.
        if self.cursor + 2 * self.body_len > self.total_insts {
            self.watching = false;
            return;
        }
        let lo = self.snapshot_key();
        // Nothing below `lo` is referenced any more.
        self.b.insts.drain(..lo - self.base);
        self.base = lo;

        let hash = self.b.key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let seen = self.b.snapshots[..self.stored]
            .iter()
            .find(|s| s.hash == hash && s.key == self.b.key)
            .map(|s| (s.cursor, s.cycle, s.ends));
        if let Some((cursor, cycle, ends)) = seen {
            self.watching = false;
            self.fast_forward(cursor, cycle, ends);
            return;
        }
        if self.b.snapshots.len() <= self.next_slot {
            self.b.snapshots.push(Snapshot::default());
        }
        let s = &mut self.b.snapshots[self.next_slot];
        std::mem::swap(&mut s.key, &mut self.b.key);
        s.hash = hash;
        s.cursor = self.cursor;
        s.cycle = self.cycle;
        s.ends = self.b.ends.len();
        self.next_slot = (self.next_slot + 1) % SNAPSHOTS;
        self.stored = (self.stored + 1).min(SNAPSHOTS);
    }

    /// Writes the relative machine state into `b.key` and returns the
    /// lowest instruction index it references.
    fn snapshot_key(&mut self) -> usize {
        let (now, cursor, base) = (self.cycle, self.cursor, self.base);
        let b = &mut *self.b;
        let insts = &b.insts;
        let key = &mut b.key;
        let completion = |x: usize| match insts[x - base].complete {
            UNKNOWN => IN_FLIGHT | (cursor - x) as u64,
            c => c.saturating_sub(now),
        };
        let dep = |d: usize| if d == NO_DEP { 0 } else { completion(d) };

        key.clear();
        key.extend([
            now % self.num_ports as u64,
            self.body_pos as u64,
            u64::from(self.uop_pos),
            b.window.len() as u64,
        ]);
        key.extend(
            self.port_free_at[..self.num_ports]
                .iter()
                .map(|&t| t.saturating_sub(now)),
        );
        let mut lo = cursor;
        for &slot in &b.written {
            match self.last_writer[slot] {
                NO_DEP => key.push(NO_DEP as u64),
                w => {
                    lo = lo.min(w);
                    key.extend([(cursor - w) as u64, completion(w)]);
                }
            }
        }
        // Window µops in order; each instruction's producers after its
        // first µop, and those of the partly fetched one at the cursor.
        let mut prev = NO_DEP;
        for uop in &b.window {
            key.extend([(cursor - uop.inst) as u64, uop.ports]);
            if uop.inst != prev {
                prev = uop.inst;
                lo = lo.min(uop.inst);
                for d in insts[uop.inst - base].deps {
                    lo = lo.min(d);
                    key.push(dep(d));
                }
            }
        }
        if self.uop_pos > 0 {
            for d in insts[cursor - base].deps {
                lo = lo.min(d);
                key.push(dep(d));
            }
        }
        lo
    }

    /// The state now equals the one seen at `cursor`/`cycle` (with `ends`
    /// iteration ends logged), shifted by whole iterations: jump ahead by
    /// as many such periods as leave at least one iteration of stream.
    fn fast_forward(&mut self, cursor: usize, cycle: u64, ends: usize) {
        let shift = self.cursor - cursor;
        let period = self.cycle - cycle;
        let m = (self.total_insts - self.body_len - self.cursor) / shift;
        if m == 0 {
            return;
        }
        let iters_per_period = shift / self.body_len;
        let b = &mut *self.b;
        let logged = b.ends.len();
        for k in 1..=m {
            for e in ends..logged {
                let j = b.ends[e];
                b.iter_end[j + k * iters_per_period] = b.iter_end[j] + k as u64 * period;
            }
        }
        self.iters_done += m * (logged - ends);

        let (s, dt) = (m * shift, m as u64 * period);
        for st in &mut b.insts {
            for d in &mut st.deps {
                if *d != NO_DEP {
                    *d += s;
                }
            }
            if st.ready != UNKNOWN {
                st.ready += dt;
            }
            if st.complete != UNKNOWN {
                st.complete += dt;
            }
        }
        for uop in &mut b.window {
            uop.inst += s;
        }
        for w in &mut self.last_writer {
            if *w != NO_DEP {
                *w += s;
            }
        }
        for t in &mut self.port_free_at[..self.num_ports] {
            *t += dt;
        }
        self.base += s;
        self.cursor += s;
        self.cycle += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;
    use pmevo_core::{Experiment, InstId};
    use pmevo_isa::LoopBuilder;

    fn measure(platform: &Platform, e: &Experiment) -> f64 {
        let kernel = LoopBuilder::new(platform.isa()).build(e);
        simulate_kernel(platform, &kernel, 10, 60).cycles_per_instance
    }

    #[test]
    fn single_alu_instruction_is_throughput_bound() {
        let p = platforms::skl();
        let add = p.isa().find("add_r64_r64").unwrap();
        // 4 ALU ports, fetch width 4: one add per 1/4 cycle.
        let tp = measure(&p, &Experiment::singleton(add));
        assert!(
            (tp - 0.25).abs() < 0.05,
            "add throughput {tp}, expected ~0.25"
        );
    }

    #[test]
    fn port_restricted_instruction_hits_its_port_limit() {
        let p = platforms::skl();
        let mul = p.isa().find("imul_r64_r64").unwrap();
        // Multiply only runs on port 1: 1 cycle per instruction.
        let tp = measure(&p, &Experiment::singleton(mul));
        assert!((tp - 1.0).abs() < 0.1, "imul throughput {tp}, expected ~1");
    }

    #[test]
    fn blocking_divider_serializes() {
        let p = platforms::a72();
        let div = p.isa().find("sdiv_r64_r64_r64").unwrap();
        let tp = measure(&p, &Experiment::singleton(div));
        // The divider blocks its port for 12 cycles.
        assert!(tp > 10.0, "sdiv throughput {tp}, expected ~12");
    }

    #[test]
    fn disjoint_instructions_overlap() {
        let p = platforms::skl();
        let mul = p.isa().find("imul_r64_r64").unwrap(); // port 1
        let load = p.isa().find("mov_r64_m64").unwrap(); // ports 2,3
        let pair = Experiment::pair(mul, 1, load, 1);
        let tp = measure(&p, &pair);
        // Both fit in one cycle: combined throughput ≈ max(1, 0.5) = 1.
        assert!(tp < 1.3, "mul+load throughput {tp}, expected ~1");
    }

    #[test]
    fn conflicting_instructions_add_up() {
        let p = platforms::skl();
        let mul = p.isa().find("imul_r64_r64").unwrap(); // port 1 only
        let mulhi = p.isa().find("mulhi_r64_r64").unwrap(); // port 1 + 5
        let tp_pair = measure(&p, &Experiment::pair(mul, 1, mulhi, 1));
        // Both need port 1; mulhi also occupies port 5: bottleneck is
        // port 1 with 2 µops => ~2 cycles.
        assert!(tp_pair > 1.6, "conflicting pair throughput {tp_pair}");
    }

    #[test]
    fn simulator_tracks_optimal_model_on_simple_experiments() {
        // For short dependency-free experiments, the simulator should be
        // close to the bottleneck-model prediction of the ground truth
        // (this is what paper Figure 6 demonstrates at small lengths).
        let p = platforms::skl();
        let gt = p.ground_truth();
        for ids in [[0usize, 40], [10, 80], [5, 120]] {
            let e = Experiment::pair(InstId(ids[0] as u32), 1, InstId(ids[1] as u32), 1);
            let predicted = gt.throughput(&e).max(2.0 / p.fetch_width() as f64);
            let measured = measure(&p, &e);
            let err = (measured - predicted).abs() / predicted;
            assert!(
                err < 0.25,
                "sim {measured} vs model {predicted} for {e} (err {err:.2})"
            );
        }
    }

    #[test]
    fn a72_narrow_frontend_limits_throughput() {
        let p = platforms::a72();
        let add = p.isa().find("add_r64_r64_r64").unwrap();
        let tp = measure(&p, &Experiment::singleton(add));
        // 2 ALU ports but fetch width 3 — port-bound at 0.5.
        assert!((tp - 0.5).abs() < 0.1, "A72 add throughput {tp}");
    }

    /// Iterations the last simulation on this thread ended cycle by cycle
    /// (the rest were fast-forwarded).
    fn simulated_iterations() -> usize {
        BUFFERS.with(|b| b.borrow().ends.len())
    }

    #[test]
    fn steady_state_is_fast_forwarded() {
        let p = platforms::a72();
        let builder = LoopBuilder::new(p.isa());
        let add = p.isa().find("add_r64_r64_r64").unwrap();
        let div = p.isa().find("sdiv_r64_r64_r64").unwrap();
        for e in [Experiment::singleton(add), Experiment::pair(add, 2, div, 1)] {
            simulate_kernel(&p, &builder.build(&e), 15, 90);
            let simulated = simulated_iterations();
            assert!(
                simulated < 30,
                "{e}: only {} of 90 iterations skipped",
                90 - simulated
            );
        }
        // Too short a run leaves no room for a jump: a period plus the
        // one iteration of stream kept for the tail.
        simulate_kernel(&p, &builder.build(&Experiment::singleton(add)), 0, 2);
        assert_eq!(simulated_iterations(), 2);
    }

    #[test]
    #[should_panic(expected = "iters >= warmup + 2")]
    fn bad_iteration_counts_panic() {
        // One measured iteration end spans zero iterations: no
        // throughput can be computed from it.
        let p = platforms::skl();
        let k = LoopBuilder::new(p.isa()).build(&Experiment::singleton(InstId(0)));
        simulate_kernel(&p, &k, 10, 11);
    }
}
