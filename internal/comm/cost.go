package comm

import "math/bits"

// CostModel translates simulated work and communication into modeled
// cluster execution time (seconds). The constants default to values
// typical of the 2012-era commodity clusters the paper used (Firefly: AMD
// dual/quad-core nodes, gigabit-class interconnect). The model follows
// LogP: per-message CPU overhead at each end (OverheadSeconds), wire
// latency (LatencySeconds), inverse bandwidth (SecondsPerByte), plus a
// per-operation compute cost (SecondsPerOp).
//
// The *Advance methods are the Engine's clock arithmetic. Every rank of
// either backend advances its virtual clock through them, so identical
// programs give bit-identical clocks, which is what makes the
// modeled-arrival AnyRecv rule deliver in the same order everywhere.
type CostModel struct {
	SecondsPerOp    float64 // per elementary graph operation
	LatencySeconds  float64 // wire latency per point-to-point message
	OverheadSeconds float64 // per-message CPU overhead at sender and receiver
	SecondsPerByte  float64 // inverse bandwidth
	SerialSecPerOp  float64 // per op of unavoidable serial work (merge/dedup)
}

// DefaultCostModel mirrors a ~100 Mops/s per-core graph workload with
// ~50 µs MPI latency, ~10 µs per-message overhead and ~100 MB/s effective
// bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{
		SecondsPerOp:    1e-8,
		LatencySeconds:  50e-6,
		OverheadSeconds: 10e-6,
		SecondsPerByte:  1e-8,
		SerialSecPerOp:  1e-8,
	}
}

// Hops is the depth of a binomial tree over p ranks: ceil(log2 p).
func Hops(p int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(bits.Len(uint(p - 1)))
}

// SendAdvance charges one outgoing message: the sender's clock pays the
// per-message overhead and the message is stamped with its modeled arrival
// (send time + latency + bytes/bandwidth).
func (m CostModel) SendAdvance(clock float64, size int) (newClock, arrive float64) {
	newClock = clock + m.OverheadSeconds
	return newClock, newClock + m.LatencySeconds + float64(size)*m.SecondsPerByte
}

// RecvAdvance advances a receiver's clock to the message's arrival time
// (if it was not already past it) plus the per-message overhead.
func (m CostModel) RecvAdvance(clock, arrive float64) float64 {
	if arrive > clock {
		clock = arrive
	}
	return clock + m.OverheadSeconds
}

// GathervAdvance advances one rank's clock across a variable-size gather
// to rank 0 (clocks/sizes are the per-rank deposit vectors, read only on
// rank 0) and returns the gather traffic charge this rank books. Modeled
// as a pipelined binomial gather tree: rank 0 advances to the latest
// contributor plus log2(P) latency hops and the serialized transfer of
// all contributed bytes; contributors just pay their send overhead.
func (m CostModel) GathervAdvance(p, id int, clock float64, clocks []float64, sizes []int) (newClock float64, collMsgs, collBytes int64) {
	if p == 1 {
		return clock, 0, 0
	}
	if id != 0 {
		return clock + m.OverheadSeconds, 0, 0
	}
	latest, total := clock, 0
	for i := 1; i < p; i++ {
		total += sizes[i]
		if t := clocks[i] + m.OverheadSeconds; t > latest {
			latest = t
		}
	}
	t := latest + Hops(p)*m.LatencySeconds + 2*m.OverheadSeconds + float64(total)*m.SecondsPerByte
	if t > clock {
		clock = t
	}
	return clock, int64(p - 1), int64(total)
}

// MaxClock returns the latest clock in the vector (0 for an empty one).
func MaxClock(xs []float64) float64 {
	mx := 0.0
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// RunStats captures everything the model needs from one parallel run,
// plus — for runs executed on a real transport — the measured wall clocks
// that sit next to the modeled seconds so measured-vs-modeled comparisons
// read one struct, not two code paths.
type RunStats struct {
	P            int
	RankOps      []int64   // per-rank elementary operations (compute)
	RankSeconds  []float64 // per-rank virtual clocks at run end (critical path)
	Messages     int64     // point-to-point messages
	Bytes        int64     // point-to-point payload bytes
	CollMessages int64     // modeled messages moved by the gather
	CollBytes    int64     // modeled payload bytes moved by the gather
	SerialOps    int64     // post-processing done on one processor (dedup, merge)
	Restarts     int64     // random-walk restarts (tracked, not charged as compute)

	// RankWallSeconds is the measured wall-clock seconds each rank spent
	// inside Run — telemetry, not content identity: the snapshot codec and
	// the determinism contract deliberately exclude it.
	RankWallSeconds []float64
	// WallSeconds is the end-to-end measured wall clock of the run as seen
	// by the rank that filled the stats.
	WallSeconds float64
	// Measured is true when the run executed on a real transport (wall
	// fields are a measurement, not scheduler noise from a simulation).
	Measured bool
}

// MaxRankOps returns the bottleneck rank's operation count.
func (s *RunStats) MaxRankOps() int64 {
	var mx int64
	for _, v := range s.RankOps {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// TotalOps returns the sum of per-rank operations.
func (s *RunStats) TotalOps() int64 {
	var t int64
	for _, v := range s.RankOps {
		t += v
	}
	return t
}

// CriticalPath returns the latest per-rank virtual clock, or 0 when the run
// carried no clocks (sequential algorithms, legacy stats).
func (s *RunStats) CriticalPath() float64 {
	return MaxClock(s.RankSeconds)
}

// Time returns the modeled execution time in seconds. Runs executed on the
// clocked runtime (RankSeconds present) are charged their critical path —
// the latest rank's virtual clock, which already interleaves compute with
// the communication it actually waited on — plus the serial tail. Legacy
// stats without clocks fall back to the flat approximation
// bottleneck compute + total latency + total transfer + serial tail.
func (m CostModel) Time(s *RunStats) float64 {
	if len(s.RankSeconds) > 0 {
		return s.CriticalPath() + float64(s.SerialOps)*m.SerialSecPerOp
	}
	return float64(s.MaxRankOps())*m.SecondsPerOp +
		float64(s.Messages)*m.LatencySeconds +
		float64(s.Bytes)*m.SecondsPerByte +
		float64(s.SerialOps)*m.SerialSecPerOp
}
