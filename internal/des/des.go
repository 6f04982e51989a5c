// Package des is the discrete-event scale harness: a model-level
// simulation of the Legion call path (§4.1) that runs 10^6 objects
// across 10^4 simulated hosts in seconds of wall time. The live
// harness (internal/sim) executes real objects on a mem fabric, and
// has served 512 000 of them with no failed call (17 s to build and
// about 2.2 KiB per object on an 8 GB box); des instead models each
// shared component — leaf Binding Agents, the combining tree (§5.2.2),
// class objects, Magistrate intake shards, hosts — as a FIFO server
// with a deterministic service time, and drives an open-loop arrival
// process over a clock.Virtual event queue. Queueing delay emerges from
// the busy-server arithmetic, so fan-in knees (a component whose
// offered load crosses its service capacity) appear exactly where the
// paper's §5 scalability argument predicts they must be engineered
// away.
//
// Determinism is load-bearing: all randomness flows from one
// splitmix64-seeded stream, events fire in the virtual clock's strict
// (time, schedule-order) sequence, and every processed event folds
// into an FNV-1a digest — two runs with the same Config produce
// byte-identical event logs and identical result tables, which the
// deterministic-replay test asserts under -race.
package des

import (
	"fmt"
	"sort"
	"time"
)

// Shape selects the arrival process of the open-loop generator.
type Shape int

const (
	// Uniform is a homogeneous Poisson process at Rate.
	Uniform Shape = iota
	// Diurnal modulates the Poisson rate sinusoidally (±DiurnalAmp
	// around Rate, period DiurnalPeriod) via thinning — the
	// day/night swing of a long-lived deployment, compressed.
	Diurnal
	// Bursty is a Markov-modulated on/off process: bursts at
	// BurstFactor×Rate alternate with quiet valleys, exponential
	// dwell times in each state.
	Bursty
)

func (s Shape) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	default:
		return "invalid"
	}
}

// Config describes one simulated deployment and workload. The zero
// value is not runnable; use Defaults() and override.
type Config struct {
	// Objects is the population size; per-object popularity is
	// zipf(ZipfS) — a few objects are white-hot, the long tail is
	// touched once or never.
	Objects int
	// Hosts is the number of simulated hosts (placement is uniform).
	Hosts int
	// Classes is the number of class objects; an object's class is its
	// id modulo Classes.
	Classes int
	// ClassClones shards each class object's instance-table service
	// across N clones (§5.2.2's class cloning; 0/1 = a single class
	// object). The knee fix for class-object fan-in.
	ClassClones int
	// Magistrates is the number of jurisdictions.
	Magistrates int
	// MagShards splits each Magistrate's intake (heartbeats +
	// activations) across N sub-magistrate shards (the jurisdiction
	// hierarchy of §2.2; 0/1 = one intake). The knee fix for
	// Magistrate-intake fan-in.
	MagShards int
	// LeafAgents and AgentFanout shape the Binding Agent combining
	// tree: LeafAgents leaves, every AgentFanout sharing a parent,
	// recursively to a root.
	LeafAgents  int
	AgentFanout int

	// Rate is the mean offered call rate per simulated second.
	Rate float64
	// Duration is the simulated run length; Warmup is excluded from
	// latency/availability accounting (caches start cold, and the
	// warm-up transient would otherwise dominate the tail).
	Duration time.Duration
	Warmup   time.Duration
	// Shape picks the arrival process; see the Shape constants.
	Shape Shape
	// ZipfS is the zipf skew parameter (>1; default 1.07).
	ZipfS float64
	// DiurnalAmp is the relative amplitude of the diurnal swing in
	// (0,1); DiurnalPeriod its period.
	DiurnalAmp    float64
	DiurnalPeriod time.Duration
	// BurstFactor scales Rate during bursts; BurstOn/BurstOff are the
	// mean dwell times of the on/off states.
	BurstFactor       float64
	BurstOn, BurstOff time.Duration

	// BindingTTL bounds client binding validity: a call to an object
	// whose binding is older re-walks the agent path to its class.
	BindingTTL time.Duration
	// InertFraction of the population starts inert; first touch goes
	// through Magistrate activation (the rest are warm-started).
	InertFraction float64
	// Deadline is the per-call budget; a call whose modeled latency
	// exceeds it counts as failed (availability accounting).
	Deadline time.Duration
	// HeartbeatEvery is the per-host load-report cadence into its
	// Magistrate's intake shard.
	HeartbeatEvery time.Duration

	// Service times of the modeled components and the per-hop network
	// delay.
	AgentService     time.Duration
	ClassService     time.Duration
	ActivateService  time.Duration
	HeartbeatService time.Duration
	HostService      time.Duration
	NetHop           time.Duration

	// Seed feeds the run's single splitmix64-derived RNG stream.
	Seed int64
	// RecordLog keeps the full textual event log in Result.Log (byte-
	// identical across replays); leave false at scale — the FNV digest
	// is always computed.
	RecordLog bool
}

// Defaults returns a runnable baseline configuration: 10^6 objects on
// 10^3 hosts under a 50k calls/s zipf-uniform load.
func Defaults() Config {
	return Config{
		Objects:          1_000_000,
		Hosts:            1000,
		Classes:          8,
		ClassClones:      1,
		Magistrates:      4,
		MagShards:        1,
		LeafAgents:       64,
		AgentFanout:      8,
		Rate:             50_000,
		Duration:         20 * time.Second,
		Warmup:           5 * time.Second,
		Shape:            Uniform,
		ZipfS:            1.07,
		DiurnalAmp:       0.5,
		DiurnalPeriod:    10 * time.Second,
		BurstFactor:      4,
		BurstOn:          500 * time.Millisecond,
		BurstOff:         2 * time.Second,
		BindingTTL:       10 * time.Second,
		InertFraction:    0.01,
		Deadline:         time.Second,
		HeartbeatEvery:   250 * time.Millisecond,
		AgentService:     5 * time.Microsecond,
		ClassService:     150 * time.Microsecond,
		ActivateService:  250 * time.Microsecond,
		HeartbeatService: 30 * time.Microsecond,
		HostService:      100 * time.Microsecond,
		NetHop:           20 * time.Microsecond,
		Seed:             1,
	}
}

func (c *Config) fill() error {
	if c.Objects <= 0 || c.Hosts <= 0 || c.Rate <= 0 || c.Duration <= 0 {
		return fmt.Errorf("des: Objects, Hosts, Rate, Duration must be positive")
	}
	if c.Classes <= 0 {
		c.Classes = 1
	}
	if c.ClassClones <= 0 {
		c.ClassClones = 1
	}
	if c.Magistrates <= 0 {
		c.Magistrates = 1
	}
	if c.MagShards <= 0 {
		c.MagShards = 1
	}
	if c.LeafAgents <= 0 {
		c.LeafAgents = 1
	}
	if c.AgentFanout <= 0 {
		c.AgentFanout = c.LeafAgents
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.07
	}
	if c.Warmup >= c.Duration {
		c.Warmup = c.Duration / 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// ComponentLoad is the message count and peak utilization of one
// component group. Util is the busiest single server's busy-time over
// the run — the number that crosses 1.0 at a fan-in knee.
type ComponentLoad struct {
	Msgs uint64
	Util float64
}

// Result aggregates one des run.
type Result struct {
	Config Config
	// Calls/Failed count measured (post-warmup) calls; a call fails
	// when its modeled latency exceeds Config.Deadline.
	Calls, Failed  int
	P50, P99, P999 time.Duration
	// Agents covers the whole combining tree; Class the class-object
	// clones; Magistrate the intake shards (heartbeats+activations);
	// Hosts the execution servers.
	Agents, Class, Magistrate, Hosts ComponentLoad
	// Heartbeats is the heartbeat message count (also included in
	// Magistrate.Msgs).
	Heartbeats uint64
	// Digest is the FNV-1a fold of every processed event — the
	// replay-determinism fingerprint.
	Digest uint64
	// Log is the full event log when Config.RecordLog was set.
	Log []byte
	// Wall is the real time the run took (not part of the digest).
	Wall time.Duration
}

// Availability is the fraction of measured calls inside the deadline.
func (r Result) Availability() float64 {
	if r.Calls == 0 {
		return 0
	}
	return float64(r.Calls-r.Failed) / float64(r.Calls)
}

// Run executes the simulation to completion.
func Run(cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	wall0 := time.Now()
	e := newEngine(cfg)
	e.start()
	for e.v.Step() {
	}
	res := e.result()
	res.Wall = time.Since(wall0)
	return res, nil
}

// percentile returns the q-quantile of sorted (ascending) samples.
func percentile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return time.Duration(sorted[i])
}

// mix64 is one splitmix64 round — the same per-stream seed derivation
// rt.Caller and internal/sim use.
func mix64(seed int64, stream uint64) int64 {
	s := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	return int64(s)
}

// sortInt64 sorts ascending; the latency slices at full scale hold a
// few million samples, so exact percentiles stay affordable.
func sortInt64(a []int64) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
