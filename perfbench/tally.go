package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/batfish/rest"
	"repro/internal/obs"
)

// eventSink is a goroutine-safe buffer a tracer writes its JSONL into.
type eventSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *eventSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// take returns and clears what the sink holds.
func (s *eventSink) take() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := bytes.Clone(s.buf.Bytes())
	s.buf.Reset()
	return out
}

// decodeEvents parses a JSONL trace.
func decodeEvents(data []byte, into []obs.Event) ([]obs.Event, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace event: %w", err)
		}
		into = append(into, ev)
	}
	return into, sc.Err()
}

// transport is a snapshot of the counters that live across jobs: the
// sharded client's, the benchmark's handler timing, and the shards'
// parse caches.
type transport struct {
	calls, sent, retries int64
	busyNS, respBytes    int64
	fragHits, fragMisses uint64
}

// transportBefore snapshots the cross-job counters before a traced job
// and discards shard spans left by earlier untraced jobs.
func transportBefore(e *env) (transport, error) {
	_, err := shardEvents(e, nil)
	return snapshotTransport(e), err
}

func snapshotTransport(e *env) transport {
	var s transport
	if e.sharded == nil {
		return s
	}
	s.calls, s.sent, s.retries = e.sharded.Calls(), e.sharded.BytesSent(), e.sharded.Retries()
	for _, sh := range e.shards {
		s.busyNS += sh.busyNS.Load()
		s.respBytes += sh.respBytes.Load()
		h, m, _ := sh.parses.FragmentStats()
		s.fragHits += h
		s.fragMisses += m
	}
	return s
}

// shardEvents appends the parse spans the shards traced since the last
// call.
func shardEvents(e *env, into []obs.Event) ([]obs.Event, error) {
	for _, sh := range e.shards {
		if err := sh.tracer.Flush(); err != nil {
			return nil, err
		}
		var err error
		if into, err = decodeEvents(sh.sink.take(), into); err != nil {
			return nil, err
		}
	}
	return into, nil
}

// layerTally accumulates the per-layer numbers of a traced run's traced
// jobs, plus the job times of both legs for the tracing overhead.
type layerTally struct {
	workers int

	// legs and legNS are the job counts and summed job times of the
	// untraced [0] and traced [1] legs.
	legs  [2]int
	legNS [2]int64

	jobs   int
	wallNS int64
	topNS  int64

	llmCalls, renders, rendersFull int
	llmNS                          int64

	localChecks int
	localSelfNS int64

	globalChecks, globalCold int
	globalNS                 int64

	parses               int
	parseNS              int64
	fragHits, fragMisses uint64

	iterations                                     int
	cacheHits, cacheMisses, prefetches, prefetched uint64

	rpcs, wireBytes, retries, serverNS, respBytes int64
	rpcMS                                         []float64
	batches, deltaBatches, failovers              int
}

// topStages partition a job's busy time: model completions, verification
// dispatch and the global check. Parses, cache events and batch RPCs nest
// inside them.
var topStages = map[string]bool{
	obs.StageLLMCall: true, obs.StageLocalCheck: true, obs.StageGlobalCheck: true,
	obs.StageCheckpointSave: true, obs.StageCheckpointRestore: true,
}

// addJob folds one traced job: its trace events, its result, the metrics
// registry it ran with, and the cross-job counters it moved.
func (t *layerTally) addJob(e *env, buf *bytes.Buffer, res *repro.Result, reg *obs.Registry,
	wall time.Duration, before transport) error {
	events, err := decodeEvents(buf.Bytes(), nil)
	if err != nil {
		return err
	}
	if events, err = shardEvents(e, events); err != nil {
		return err
	}
	after := snapshotTransport(e)
	t.jobs++
	t.wallNS += int64(wall)

	var localSpans, children []obs.Event
	for _, ev := range events {
		if topStages[ev.Stage] {
			t.topNS += ev.DurNS
		}
		switch ev.Stage {
		case obs.StageLLMCall:
			t.llmCalls++
			t.llmNS += ev.DurNS
		case obs.StageRender:
			t.renders++
			if ev.Outcome == "full" {
				t.rendersFull++
			}
		case obs.StageLocalCheck:
			if ev.Detail == "local" && ev.Outcome == "check" {
				t.localChecks++
				localSpans = append(localSpans, ev)
			}
		case obs.StageGlobalCheck:
			t.globalChecks++
			t.globalNS += ev.DurNS
			if ev.Outcome == "cold" || ev.Outcome == "simulated" {
				t.globalCold++
			}
		case obs.StageParse:
			t.parses++
			t.parseNS += ev.DurNS
			children = append(children, ev)
		case obs.StageBatchRPC:
			t.batches++
			if ev.Proto == rest.BatchProtocolVersion {
				t.deltaBatches++
			}
			t.rpcMS = append(t.rpcMS, float64(ev.DurNS)/1e6)
			children = append(children, ev)
		case obs.StageFailover:
			t.failovers++
		}
	}
	t.localSelfNS += selfTime(localSpans, children)

	t.iterations += res.Iterations
	if cs := res.CacheStats; cs != nil {
		t.cacheHits += cs.Hits
		t.cacheMisses += cs.Misses
		t.prefetches += cs.Prefetches
		t.prefetched += cs.BatchedChecks
	}
	// The in-process parse cache registers its fragment counters into the
	// job's registry; the shards' caches outlive jobs and are read as
	// deltas.
	snap := reg.Snapshot()
	t.fragHits += counter(snap, "cosynth_parse_fragment_hits_total") + after.fragHits - before.fragHits
	t.fragMisses += counter(snap, "cosynth_parse_fragment_misses_total") + after.fragMisses - before.fragMisses

	t.rpcs += after.calls - before.calls
	t.wireBytes += after.sent - before.sent
	t.retries += after.retries - before.retries
	t.serverNS += after.busyNS - before.busyNS
	t.respBytes += after.respBytes - before.respBytes
	return nil
}

func counter(snap map[string]any, name string) uint64 {
	v, _ := snap[name].(uint64) // absent when the job had no in-process parse cache
	return v
}

// selfTime sums the parents' durations minus the children (parses and
// batch RPCs) that lie inside one of them. With parallel workers a child
// may be credited to another worker's overlapping parent; the sum over
// all parents is unaffected.
func selfTime(parents, children []obs.Event) int64 {
	sort.Slice(parents, func(i, j int) bool { return parents[i].TS.Before(parents[j].TS) })
	var total int64
	for _, p := range parents {
		total += p.DurNS
	}
	for _, c := range children {
		cs, ce := c.TS.UnixNano(), c.TS.UnixNano()+c.DurNS
		i := sort.Search(len(parents), func(i int) bool { return parents[i].TS.UnixNano() > cs })
		for k := i - 1; k >= 0 && k >= i-8; k-- {
			if parents[k].TS.UnixNano()+parents[k].DurNS >= ce {
				total -= c.DurNS
				break
			}
		}
	}
	return total
}

// metrics computes the per-layer metrics of a traced run.
func (t *layerTally) metrics(r *replays, failedShare float64) map[string]metric {
	n := float64(t.jobs)
	perJob := func(v float64) float64 { return ratio(v, n) }
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	m := map[string]metric{}

	set(m, "lightyear.local_checks_per_job", perJob(float64(t.localChecks)), "count")
	set(m, "lightyear.local_self_s_per_job", perJob(secs(t.localSelfNS)), "s")
	set(m, "lightyear.check_us.p50", quantile(r.checkUS, 0.5), "us")
	set(m, "lightyear.check_us.p90", quantile(r.checkUS, 0.9), "us")

	set(m, "symbolic.accept_space_us.p50", quantile(r.acceptUS, 0.5), "us")

	set(m, "batfish.global_checks_per_job", perJob(float64(t.globalChecks)), "count")
	set(m, "batfish.global_s_per_job", perJob(secs(t.globalNS)), "s")
	set(m, "batfish.global_cold_share", ratio(float64(t.globalCold), float64(t.globalChecks)), "share")
	set(m, "batfish.cold_sim_ms", quantile(r.coldMS, 0.5), "ms")
	set(m, "batfish.incremental_sim_ms", quantile(r.incrementalMS, 0.5), "ms")

	set(m, "netcfg.parses_per_job", perJob(float64(t.parses)), "count")
	set(m, "netcfg.parse_busy_s_per_job", perJob(secs(t.parseNS)), "s")
	set(m, "netcfg.fragment_hit_ratio", ratio(float64(t.fragHits), float64(t.fragHits+t.fragMisses)), "ratio")
	set(m, "netcfg.parse_us.p50", quantile(r.parseUS, 0.5), "us")

	set(m, "campion.diff_us.p50", quantile(r.diffUS, 0.5), "us")

	set(m, "llm.calls_per_job", perJob(float64(t.llmCalls)), "count")
	set(m, "llm.busy_s_per_job", perJob(secs(t.llmNS)), "s")
	set(m, "llm.render_full_share", ratio(float64(t.rendersFull), float64(t.renders)), "share")

	set(m, "core.iterations_per_job", perJob(float64(t.iterations)), "count")
	set(m, "core.cache_hit_ratio", ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "ratio")
	set(m, "core.prefetch_rpcs_per_job", perJob(float64(t.prefetches)), "count")
	set(m, "core.prefetched_checks_per_job", perJob(float64(t.prefetched)), "count")
	set(m, "core.worker_occupancy", ratio(float64(t.topNS), float64(t.workers)*float64(t.wallNS)), "share")

	set(m, "rest.rpcs_per_job", perJob(float64(t.rpcs)), "count")
	set(m, "rest.rpc_s.p50", quantile(t.rpcMS, 0.5)/1e3, "s")
	set(m, "rest.server_busy_s_per_job", perJob(secs(t.serverNS)), "s")
	set(m, "rest.response_bytes_per_job", perJob(float64(t.respBytes)), "bytes")
	set(m, "rest.delta_share", ratio(float64(t.deltaBatches), float64(t.batches)), "share")
	set(m, "rest.retries_per_job", perJob(float64(t.retries)), "count")
	set(m, "rest.failovers_per_job", perJob(float64(t.failovers)), "count")

	set(m, "wire_bytes_per_job", perJob(float64(t.wireBytes)), "bytes")
	set(m, "failed_share", failedShare, "share")
	untraced := ratio(float64(t.legs[0]), secs(t.legNS[0]))
	traced := ratio(float64(t.legs[1]), secs(t.legNS[1]))
	set(m, "trace.jobs_per_s_untraced", untraced, "1/s")
	set(m, "trace.jobs_per_s_traced", traced, "1/s")
	set(m, "trace.overhead_share", ratio(untraced, traced)-1, "share")
	return m
}
