// Package ooo implements a cycle-level out-of-order core with physical
// register renaming, a reorder buffer, an issue queue woken by tag
// broadcasts, load/store queues with store-to-load forwarding and
// speculative store bypass, branch prediction with wrong-path execution,
// and precise exceptions at commit.
//
// The core executes real wrong-path instructions: on a mispredicted branch
// it fetches and executes the attacker-visible wrong path, including cache
// fills and BTB updates that survive the squash — the micro-architectural
// side effects speculative execution attacks rely on. The NDA propagation
// policies (package core) plug into the single point the paper modifies:
// the tag-broadcast stage between instruction completion and dependent
// wake-up.
package ooo

import "nda/internal/isa"

// Params configures the core. DefaultParams reproduces Table 3 of the
// paper: an 8-issue Haswell-like machine with a 192-entry ROB, 32-entry
// load and store queues, a 4096-entry BTB, and a 16-entry RAS.
type Params struct {
	FetchWidth    int // instructions fetched per cycle
	DispatchWidth int // instructions renamed/dispatched per cycle
	IssueWidth    int // instructions entering execution per cycle
	CommitWidth   int // instructions retired per cycle

	// BroadcastPorts bounds tag broadcasts per cycle. NDA does not add
	// ports: deferred broadcasts compete with completing instructions,
	// and completing instructions win (paper §5.1).
	BroadcastPorts int

	ROBSize    int
	IQSize     int
	LQSize     int
	SQSize     int
	PhysRegs   int
	FetchQSize int

	// FrontEndDepth is the fetch-to-dispatch pipeline depth in cycles; it
	// dominates the mispredict/squash penalty.
	FrontEndDepth int
	// RedirectPenalty is the additional delay before fetch resumes after a
	// squash or a front-end redirect.
	RedirectPenalty int

	// BTBEntries/BTBWays/RASEntries/GshareBits size the predictors.
	BTBEntries int
	BTBWays    int
	RASEntries int
	GshareBits uint

	// Execution latencies (cycles). Loads pay AGULatency plus the cache
	// round trip; forwarded loads pay AGULatency plus ForwardLatency.
	ALULatency     int
	MulLatency     int
	DivLatency     int
	BranchLatency  int
	AGULatency     int
	ForwardLatency int
	MSRLatency     int
	FlushLatency   int

	// MeltdownVulnerable selects whether a faulting load (or privileged
	// RDMSR) forwards the real value to dependents before the fault is
	// taken at commit — the implementation flaw Meltdown-class attacks
	// exploit. When false, faulting accesses forward zero.
	MeltdownVulnerable bool

	// SpeculativeBTBUpdate controls whether indirect branches executing on
	// (possibly wrong) speculative paths update the BTB. True matches real
	// hardware and enables the paper's §3 BTB covert channel.
	SpeculativeBTBUpdate bool

	// DeadlockCycles aborts the simulation if no instruction commits for
	// this many consecutive cycles (a simulator bug guard).
	DeadlockCycles uint64

	// Sanitize enables the propagation sanitizer (sanitizer.go): an oracle,
	// run every simulated cycle, asserting that no consumer issues on a
	// value whose producer was unsafe at broadcast-defer time. Costs two
	// ROB walks per stepped cycle; used by the static/dynamic
	// cross-validation tests and the differential fuzzer.
	Sanitize bool
}

// DefaultParams returns the Table 3 configuration.
func DefaultParams() Params {
	return Params{
		FetchWidth:    8,
		DispatchWidth: 8,
		IssueWidth:    8,
		CommitWidth:   8,

		BroadcastPorts: 8,

		ROBSize:    192,
		IQSize:     60,
		LQSize:     32,
		SQSize:     32,
		PhysRegs:   256,
		FetchQSize: 32,

		FrontEndDepth:   8,
		RedirectPenalty: 4,

		BTBEntries: 4096,
		BTBWays:    4,
		RASEntries: 16,
		GshareBits: 14,

		ALULatency:     1,
		MulLatency:     3,
		DivLatency:     20,
		BranchLatency:  1,
		AGULatency:     1,
		ForwardLatency: 3,
		MSRLatency:     4,
		FlushLatency:   4,

		MeltdownVulnerable:   true,
		SpeculativeBTBUpdate: true,

		DeadlockCycles: 200_000,
	}
}

// execLatency returns the fixed execution latency for non-load ops.
func (p *Params) execLatency(op isa.Op) int {
	switch op {
	case isa.OpMul:
		return p.MulLatency
	case isa.OpDiv, isa.OpRem:
		return p.DivLatency
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu,
		isa.OpJal, isa.OpJalr:
		return p.BranchLatency
	case isa.OpSd, isa.OpSw, isa.OpSb:
		return p.AGULatency
	case isa.OpRdmsr, isa.OpWrmsr:
		return p.MSRLatency
	case isa.OpClflush:
		return p.FlushLatency
	default:
		return p.ALULatency
	}
}
