// Package parmodel defines the interface between workload cost models and
// the parallel runtime models (omprt, syclrt): a workload is a function of
// a Model, recorded once (Record) into a list of phases — parallel loops of
// costed work units and serial master work — that a runtime replays on the
// simulated machine. The two runtimes differ exactly where the paper says
// OpenMP and SYCL differ: work distribution policy, synchronization style,
// and fixed runtime overheads.
package parmodel

// Cost is the machine demand of one work unit: CPU cycles, bytes of memory
// traffic, and optionally a blocking I/O request. Work units are coarse by
// design (a block of iterations, a work-group, one service request),
// keeping the simulation event count tractable.
type Cost struct {
	Cycles float64
	Bytes  float64
	// IOBytes, when positive, blocks the executing thread on the device
	// named by IODev after the unit's compute and memory phases complete
	// (cpusched BlockOn). The device must be registered on the scheduler
	// before the workload runs (workloads declare theirs via the
	// workloads.IOWorkload interface). Zero means a CPU-bound unit.
	IOBytes float64
	IODev   string
}

// Add returns the sum of two costs. I/O requests to the same device merge
// by volume; when only one side names a device, that name wins (work units
// aggregated into one chunk issue a single combined request, mirroring
// request coalescing in a real block layer).
func (c Cost) Add(o Cost) Cost {
	dev := c.IODev
	if dev == "" {
		dev = o.IODev
	}
	return Cost{c.Cycles + o.Cycles, c.Bytes + o.Bytes, c.IOBytes + o.IOBytes, dev}
}

// Scale returns the cost with CPU and memory demands multiplied by f. I/O
// volume is data, not work: runtime efficiency factors (omprt/syclrt
// CostFactor) change how fast a unit computes, not how many bytes it must
// move through a device, so IOBytes is deliberately left unscaled.
func (c Cost) Scale(f float64) Cost {
	return Cost{c.Cycles * f, c.Bytes * f, c.IOBytes, c.IODev}
}

// Model is the interface a workload body is written against. The runtimes
// never execute a body directly: Record runs it once against a recording
// Model and the runtime replays the resulting phase list on the simulated
// machine, so a body's control flow may depend only on Threads and Name.
type Model interface {
	// ParallelFor executes n work units, unit i costing cost(i), across
	// the team, then synchronizes (implicit end-of-region barrier /
	// kernel completion wait). cost is called when a unit is claimed, not
	// when the body runs.
	ParallelFor(n int, cost func(i int) Cost)
	// MasterCompute runs serial compute on the master/host thread.
	MasterCompute(cycles float64)
	// MasterMemory streams bytes on the master/host thread.
	MasterMemory(bytes float64)
	// MasterBlockOn blocks the master/host thread on a request of the
	// given volume to the named device (fsync, synchronous read). Zero
	// bytes still blocks for the device's latency — an fsync barrier. The
	// device must be registered before the workload runs; referencing an
	// unregistered name panics when the request is issued.
	MasterBlockOn(dev string, bytes float64)
	// Threads returns the team/worker-pool size.
	Threads() int
	// Name identifies the runtime ("omp" or "sycl").
	Name() string
}

// Body is a workload expressed against a runtime model.
type Body func(Model)

// PhaseKind identifies the Model call a Phase records.
type PhaseKind int

const (
	// PhaseParallelFor is a ParallelFor call: N and Cost are set.
	PhaseParallelFor PhaseKind = iota
	// PhaseCompute is a MasterCompute call: Amount is cycles.
	PhaseCompute
	// PhaseMemory is a MasterMemory call: Amount is bytes.
	PhaseMemory
	// PhaseBlockOn is a MasterBlockOn call: Dev and Amount (bytes) are set.
	PhaseBlockOn
)

// Phase is one recorded Model call of a workload body.
type Phase struct {
	Kind   PhaseKind
	N      int
	Cost   func(int) Cost
	Amount float64
	Dev    string
}

// Record runs body once against a Model that reports the given runtime
// name and thread count, and returns its Model calls in order. Values are
// recorded as passed: trip counts and devices are validated by the runtime
// that replays the phases, and cost functions are not called.
func Record(body Body, name string, threads int) []Phase {
	r := &recorder{name: name, threads: threads}
	body(r)
	return r.phases
}

type recorder struct {
	name    string
	threads int
	phases  []Phase
}

func (r *recorder) ParallelFor(n int, cost func(int) Cost) {
	r.phases = append(r.phases, Phase{Kind: PhaseParallelFor, N: n, Cost: cost})
}

func (r *recorder) MasterCompute(cycles float64) {
	r.phases = append(r.phases, Phase{Kind: PhaseCompute, Amount: cycles})
}

func (r *recorder) MasterMemory(bytes float64) {
	r.phases = append(r.phases, Phase{Kind: PhaseMemory, Amount: bytes})
}

func (r *recorder) MasterBlockOn(dev string, bytes float64) {
	r.phases = append(r.phases, Phase{Kind: PhaseBlockOn, Dev: dev, Amount: bytes})
}

func (r *recorder) Threads() int { return r.threads }

func (r *recorder) Name() string { return r.name }
