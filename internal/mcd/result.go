package mcd

import (
	"mcddvfs/internal/clock"
	"mcddvfs/internal/power"
)

// FreqPoint is one sample of a domain's frequency trajectory, indexed by
// retired-instruction count (matching the x-axis of Figure 7).
type FreqPoint struct {
	Insts int64
	MHz   float64
}

// DomainStats summarizes one clock domain after a run.
type DomainStats struct {
	// EnergyJ is the domain's total (dynamic + leakage) energy.
	EnergyJ float64
	// DynamicJ and LeakageJ break EnergyJ down.
	DynamicJ, LeakageJ float64
	// Cycles executed.
	Cycles uint64
	// MeanFreqMHz is the time-weighted average frequency.
	MeanFreqMHz float64
	// Transitions counts accepted DVFS retargets.
	Transitions int
	// SlewTime is the cumulative time spent in frequency transitions.
	SlewTime clock.Time
	// MeanOccupancy is the average sampled occupancy of the domain's
	// input queue (0 for the front end).
	MeanOccupancy float64
	// MeanActivity is the average per-cycle activity factor.
	MeanActivity float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Benchmark and Scheme label the run.
	Benchmark string
	Scheme    string

	// Metrics is the headline energy/performance outcome.
	Metrics power.Metrics

	// Domains maps domain name to its summary.
	Domains map[string]DomainStats

	// QueueSamples holds the 250 MHz occupancy series per controlled
	// domain (INT, FP, LS), possibly truncated to the sample limit,
	// each held as it is stored on disk: at most one byte a sample when
	// every sample is at most 255, as every default-sized queue's is,
	// and less when the queue rarely moves. Series.Len counts the
	// samples and Series.Floats gives the []float64 the spectral
	// analysis reads.
	QueueSamples map[string]Series

	// FreqTrace holds the frequency trajectory per controlled domain.
	FreqTrace map[string]FreqSeries

	// IPC is retired instructions per front-end cycle.
	IPC float64
	// BranchMispredictRate is mispredictions per executed branch.
	BranchMispredictRate float64
	// L1DMissRate, L2MissRate and L1IMissRate summarize the hierarchy.
	L1DMissRate, L2MissRate, L1IMissRate float64
	// QueueFullStalls counts dispatch stalls due to full issue queues,
	// per domain.
	QueueFullStalls map[string]uint64
	// ForwardedLoads counts loads satisfied by store-to-load
	// forwarding.
	ForwardedLoads uint64
	// RetiredByClass breaks retired instructions down by operation
	// class (only classes that actually retired appear).
	RetiredByClass map[string]int64
}
