// Package syclrt models a SYCL (DPC++-style) runtime targeting the CPU: a
// host thread submits kernels to an in-order queue; a worker pool executes
// each kernel's ND-range as work-groups claimed dynamically (work-stealing
// flavour). The model carries the overheads the paper attributes to SYCL's
// runtime layer — per-kernel submission cost, per-work-group dispatch cost,
// and a code-generation efficiency factor — which make SYCL slower in raw
// time but *more resilient* to injected noise: a worker delayed by noise
// simply executes fewer work-groups while the rest of the pool absorbs its
// share, instead of holding a static-schedule barrier hostage.
package syclrt

import (
	"fmt"

	"repro/internal/cpusched"
	"repro/internal/mitigate"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

// Config tunes the runtime model.
type Config struct {
	// SubmitOverhead is host-side work per kernel submission (queue entry,
	// dependency tracking, handler construction).
	SubmitOverhead sim.Time
	// WGDispatch is per-work-group claim cost on a worker.
	WGDispatch sim.Time
	// WGUnits is how many work units form one work-group (claim
	// granularity); minimum 1.
	WGUnits int
	// CostFactor scales unit cost (kernel codegen efficiency vs OpenMP).
	CostFactor float64
	// ActiveWait spins workers between work-groups of an active kernel;
	// the pool parks passively between kernels either way.
	ActiveWait bool
	// Policy is the scheduling class pool threads (host and workers) are
	// spawned with; the zero value is SCHED_OTHER. PolicyDeadline
	// additionally needs the per-thread CBS reservation below — the
	// deadline-class mitigation runs every pool thread under EDF.
	Policy    cpusched.Policy
	DLRuntime sim.Time
	DLPeriod  sim.Time
}

// DefaultConfig returns the model constants used for the paper's SYCL runs.
func DefaultConfig() Config {
	return Config{
		SubmitOverhead: 35 * sim.Microsecond,
		WGDispatch:     400, // ns
		WGUnits:        1,
		CostFactor:     1.08,
		ActiveWait:     false,
	}
}

type kernel struct {
	n    int
	cost func(int) parmodel.Cost
	next int // work-group claim cursor
}

// Queue is the SYCL in-order queue plus its worker pool.
type Queue struct {
	s    *cpusched.Scheduler
	plan *mitigate.Plan
	cfg  Config

	kernelBar *cpusched.Barrier // host+workers rendezvous to start a kernel
	doneBar   *cpusched.Barrier // host+workers rendezvous at kernel end
	kern      kernel
	stop      bool

	cyclesPerNs float64

	host    *cpusched.Task
	workers []*cpusched.Task
}

// Start records body (parmodel.Record) and creates the queue's worker
// pool. The host thread replays the recorded phases and participates in
// kernel execution as one of the workers (CPU backends do this), so the
// pool size equals the plan's thread count. Every pool thread, the host
// included, runs the same inline poolProgram.
func Start(s *cpusched.Scheduler, plan *mitigate.Plan, cfg Config, body parmodel.Body) *Queue {
	if cfg.CostFactor <= 0 {
		cfg.CostFactor = 1.0
	}
	if cfg.WGUnits <= 0 {
		cfg.WGUnits = 1
	}
	q := &Queue{
		s:           s,
		plan:        plan,
		cfg:         cfg,
		kernelBar:   cpusched.NewBarrier(plan.Threads),
		doneBar:     cpusched.NewBarrier(plan.Threads),
		cyclesPerNs: s.Topology().CyclesPerNs(),
	}
	phases := parmodel.Record(body, "sycl", plan.Threads)
	spawn := func(name string, i int, p *poolProgram) *cpusched.Task {
		return s.SpawnProgram(cpusched.TaskSpec{
			Name:      name,
			Kind:      cpusched.KindWorkload,
			Affinity:  plan.AffinityOf(i),
			Policy:    cfg.Policy,
			DLRuntime: cfg.DLRuntime,
			DLPeriod:  cfg.DLPeriod,
		}, p)
	}
	for i := 1; i < plan.Threads; i++ {
		q.workers = append(q.workers, spawn(workerName(i), i, &poolProgram{q: q}))
	}
	q.host = spawn("sycl-host", 0, &poolProgram{q: q, host: true, state: pLead, phases: phases})
	return q
}

// Host returns the host task (the workload's completion handle).
func (q *Queue) Host() *cpusched.Task { return q.host }

// poolProgram is a pool thread as an inline scheduler Program: park at the
// kernel barrier, claim and execute work-groups from the shared cursor,
// rendezvous at the done barrier, repeat. Claims run inside Next, at the
// simulated instants the thread fetches its next request, so work-group
// distribution resolves deterministically.
//
// The host runs the same loop with a leader prologue: between kernels it
// replays the recorded workload phases — serial work, then per ParallelFor
// the submission cost before the kernel barrier it releases — and after
// the last phase it sets stop and releases the workers once more.
type poolProgram struct {
	q     *Queue
	state int
	mem   float64 // memory half of the work-group whose compute was yielded
	io    float64 // I/O bytes of the work-group (0 = no blocking phase)
	iodev string  // device the I/O phase blocks on

	// Host only: the phases still to replay, and the current kernel's obs
	// span start and number (advanced only while an observer is attached).
	host        bool
	phases      []parmodel.Phase
	submitStart sim.Time
	kernels     int
}

const (
	pKernelBar = iota // arrive at the kernel start barrier
	pBegin            // released: check stop, begin claiming
	pDispatch         // yield the per-work-group dispatch cost
	pClaim            // claim a work-group, yield its compute
	pMemory           // yield the memory half of the current work-group
	pIO               // block on the work-group's device request (io > 0 only)
	pDoneBar          // arrive at the kernel end barrier
	pKernelEnd        // host: the kernel is over; close its obs span
	pLead             // host: replay the next recorded phase
)

func (p *poolProgram) Next(task *cpusched.Task) (cpusched.Request, bool) {
	q := p.q
	for {
		switch p.state {
		case pLead:
			if len(p.phases) == 0 {
				q.stop = true
				p.state = pKernelBar
				continue
			}
			ph := p.phases[0]
			p.phases = p.phases[1:]
			switch ph.Kind {
			case parmodel.PhaseCompute:
				return cpusched.ReqCompute(ph.Amount * q.cfg.CostFactor), true
			case parmodel.PhaseMemory:
				return cpusched.ReqMemory(ph.Amount * q.cfg.CostFactor), true
			case parmodel.PhaseBlockOn:
				// I/O volume is data, not work: CostFactor does not apply.
				return cpusched.ReqBlockOn(q.device(ph.Dev), ph.Amount), true
			}
			if ph.N < 0 {
				panic("syclrt: negative ND-range")
			}
			q.kern = kernel{n: ph.N, cost: ph.Cost}
			if q.s.Observer() != nil {
				p.submitStart = q.s.Now()
				p.kernels++
			}
			p.state = pKernelBar
			return cpusched.ReqCompute(float64(q.cfg.SubmitOverhead) * q.cyclesPerNs), true
		case pKernelBar:
			p.state = pBegin
			if q.plan.Threads > 1 {
				return cpusched.ReqBarrier(q.kernelBar, false), true
			}
		case pBegin:
			if q.stop {
				return cpusched.Request{}, false
			}
			p.state = pDispatch
		case pDispatch:
			// Zero dispatch cost yields a zero-demand request the
			// scheduler skips, so the claim below runs within the same
			// fetch.
			p.state = pClaim
			return cpusched.ReqCompute(float64(q.cfg.WGDispatch) * q.cyclesPerNs), true
		case pClaim:
			k := &q.kern
			lo := k.next
			if lo >= k.n {
				p.state = pDoneBar
				continue
			}
			hi := min(lo+q.cfg.WGUnits, k.n)
			k.next = hi
			c, b, io, dev := q.groupCost(lo, hi)
			p.mem, p.io, p.iodev = b, io, dev
			p.state = pMemory
			return cpusched.ReqCompute(c), true
		case pMemory:
			b := p.mem
			p.mem = 0
			if p.io > 0 {
				p.state = pIO
			} else {
				p.state = pDispatch
			}
			return cpusched.ReqMemory(b), true
		case pIO:
			io, dev := p.io, p.iodev
			p.io, p.iodev = 0, ""
			p.state = pDispatch
			return cpusched.ReqBlockOn(q.device(dev), io), true
		case pDoneBar:
			if !p.host {
				p.state = pKernelBar
				return cpusched.ReqBarrier(q.doneBar, q.cfg.ActiveWait), true
			}
			p.state = pKernelEnd
			if q.plan.Threads > 1 {
				return cpusched.ReqBarrier(q.doneBar, q.cfg.ActiveWait), true
			}
		case pKernelEnd:
			// The kernel span steals no simulated time: it is emitted at
			// the fetch after the done barrier, on the host's CPU.
			if rec := q.s.Observer(); rec != nil {
				rec.Span(task.CPU(), fmt.Sprintf("kernel-%d", p.kernels),
					"sycl", "in-order", p.submitStart, q.s.Now())
			}
			p.state = pLead
		}
	}
}

// groupCost sums and scales the cost of work units [lo, hi).
func (q *Queue) groupCost(lo, hi int) (cycles, bytes, ioBytes float64, ioDev string) {
	var total parmodel.Cost
	for i := lo; i < hi; i++ {
		total = total.Add(q.kern.cost(i))
	}
	total = total.Scale(q.cfg.CostFactor)
	return total.Cycles, total.Bytes, total.IOBytes, total.IODev
}

// device resolves a workload-referenced device name on the scheduler.
func (q *Queue) device(name string) *cpusched.Device {
	d := q.s.Device(name)
	if d == nil {
		panic(fmt.Sprintf("syclrt: workload references unregistered device %q", name))
	}
	return d
}

// workerNames caches the recurring per-thread names: queues are rebuilt
// every rep, and re-formatting identical names each time is measurable in
// batched series.
var workerNames = func() (s [64]string) {
	for i := range s {
		s[i] = fmt.Sprintf("sycl-worker-%d", i)
	}
	return
}()

func workerName(i int) string {
	if i >= 0 && i < len(workerNames) {
		return workerNames[i]
	}
	return fmt.Sprintf("sycl-worker-%d", i)
}
