package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

// An untraced run sets its workload up at least minSetupReps times and
// until setupBudget has passed, at most maxSetupReps times; the reported
// set-up time is the median.
const (
	minSetupReps = 7
	maxSetupReps = 1001
	setupBudget  = 200 * time.Millisecond
)

// replayShare is the share of the window a traced run may spend on
// direct layer-call replays after the window.
const replayShare = 0.25

// jobRecord is what the timed loop keeps of one job.
type jobRecord struct {
	input            int
	dur              time.Duration
	automated, human int
	verified         bool
	err              error
	out              int // index into outputs.list; -1 when the job errored
}

// output is one distinct job output, checked once after the window:
// checks are pure functions of (input, output).
type output struct {
	input   int
	configs map[string]string
	err     error
}

// outputs deduplicates job outputs by content, so a workload that repeats
// its inputs keeps one copy of each output.
type outputs struct {
	index map[string]int
	list  []output
}

func (o *outputs) add(e *env, input int, res *repro.Result) int {
	if o.index == nil {
		o.index = map[string]int{}
	}
	var key strings.Builder
	key.WriteString(strconv.Itoa(input))
	if t := e.jobs[input].topo; t != nil {
		for _, r := range t.Routers {
			key.WriteByte(0)
			key.WriteString(res.Configs[r.Name])
		}
	} else {
		key.WriteByte(0)
		key.WriteString(res.Configs[translationKey])
	}
	if i, ok := o.index[key.String()]; ok {
		return i
	}
	o.list = append(o.list, output{input: input, configs: res.Configs})
	o.index[key.String()] = len(o.list) - 1
	return len(o.list) - 1
}

// translationKey is the Result.Configs key of a translation's output.
const translationKey = "translation"

// run sets the workload up, runs its closed loop for the window, checks
// every output and returns the report.
func run(w workload, seed int64, window time.Duration, trace bool) (*report, error) {
	var setupSecs []float64
	var e *env
	for begin := time.Now(); ; {
		start := time.Now()
		var err error
		if e, err = w.setup(seed, trace); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		n := len(setupSecs)
		if trace || n >= maxSetupReps || (n >= minSetupReps && time.Since(begin) >= setupBudget) {
			break
		}
		e.close()
	}
	defer e.close()

	for i := 0; i < e.warmup; i++ {
		if _, err := e.runJob(&e.jobs[i%len(e.jobs)], nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	rep := &report{workload: w.name}
	var outs outputs
	if !trace {
		records, usage := loopUntraced(e, window, &outs)
		failed := checkAll(e, records, &outs)
		rep.result = endToEnd(records, usage, failed, quantile(setupSecs, 0.5))
		rep.addNote("failed_share", float64(failed)/float64(len(records)), "share")
		rep.addNote("wire_bytes_per_job", float64(usage.wireBytes)/float64(len(records)), "bytes")
		return rep, nil
	}
	tally := &layerTally{workers: e.workers}
	records, err := loopTraced(e, window, &outs, tally)
	if err != nil {
		return nil, err
	}
	failed := checkAll(e, records, &outs)
	replays, err := replay(e, &outs, time.Duration(float64(window)*replayShare))
	if err != nil {
		return nil, err
	}
	rep.result = result{
		Correct:   failed == 0,
		Attempted: len(records),
		Failed:    failed,
		Metrics:   tally.metrics(replays, float64(failed)/float64(len(records))),
	}
	return rep, nil
}

// usage is the process resources a window consumed.
type usage struct {
	wall      time.Duration
	cpu       time.Duration
	allocs    uint64
	wireBytes int64
}

// resources samples process CPU time, cumulative heap allocation and the
// bytes the sharded client has sent; wall is left for the caller.
func resources(e *env) usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	u := usage{cpu: cpu, allocs: s[0].Value.Uint64()}
	if e.sharded != nil {
		u.wireBytes = e.sharded.BytesSent()
	}
	return u
}

func (u usage) since(before usage) usage {
	return usage{cpu: u.cpu - before.cpu,
		allocs: u.allocs - before.allocs, wireBytes: u.wireBytes - before.wireBytes}
}

// loopUntraced is the closed loop of an untraced run: one client issues
// the next job when the previous one returns, until the window has passed
// and the last cycle is complete; at least one cycle always runs.
func loopUntraced(e *env, window time.Duration, outs *outputs) ([]jobRecord, usage) {
	var records []jobRecord
	before := resources(e)
	begin := time.Now()
	for i := e.warmup; ; i++ {
		input := i % len(e.jobs)
		start := time.Now()
		res, err := e.runJob(&e.jobs[input], nil, nil)
		records = append(records, record(e, input, time.Since(start), res, err, outs))
		if time.Since(begin) >= window && len(records)%e.cycle == 0 {
			break
		}
	}
	u := resources(e).since(before)
	u.wall = time.Since(begin)
	return records, u
}

// record keeps one finished job. Recording happens inside the window but
// outside the job's own timing.
func record(e *env, input int, dur time.Duration, res *repro.Result, err error, outs *outputs) jobRecord {
	r := jobRecord{input: input, dur: dur, err: err, out: -1}
	if err == nil {
		r.automated, r.human = res.Transcript.Counts()
		r.verified = res.Verified
		r.out = outs.add(e, input, res)
	}
	return r
}

// loopTraced runs the closed loop in pairs: each input once untraced and
// once with the program's Metrics and Trace options set, alternating which
// goes first. The traced job feeds the per-layer tally; the two job times
// give the tracing overhead.
func loopTraced(e *env, window time.Duration, outs *outputs, tally *layerTally) ([]jobRecord, error) {
	var records []jobRecord
	begin := time.Now()
	for i := e.warmup; ; i++ {
		input := i % len(e.jobs)
		for leg := 0; leg < 2; leg++ {
			traced := (leg == 0) == (i%2 == 1)
			if !traced {
				start := time.Now()
				res, err := e.runJob(&e.jobs[input], nil, nil)
				r := record(e, input, time.Since(start), res, err, outs)
				tally.legs[0]++
				tally.legNS[0] += int64(r.dur)
				records = append(records, r)
				continue
			}
			reg := obs.NewRegistry()
			var buf bytes.Buffer
			tr := obs.NewTracer(&buf)
			before, err := transportBefore(e)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := e.runJob(&e.jobs[input], reg, tr)
			dur := time.Since(start)
			r := record(e, input, dur, res, err, outs)
			tally.legs[1]++
			tally.legNS[1] += int64(r.dur)
			records = append(records, r)
			if cerr := tr.Close(); cerr != nil {
				return nil, fmt.Errorf("trace: %w", cerr)
			}
			if err == nil {
				if ferr := tally.addJob(e, &buf, res, reg, dur, before); ferr != nil {
					return nil, ferr
				}
			}
		}
		if time.Since(begin) >= window && (i+1-e.warmup)%e.cycle == 0 {
			break
		}
	}
	return records, nil
}

// checkAll checks every distinct output independently and returns the
// number of failed jobs: jobs that errored, did not verify, failed the
// independent check, or — for the paper's all-classes translation — did
// not report the paper's prompt counts.
func checkAll(e *env, records []jobRecord, outs *outputs) int {
	for i := range outs.list {
		o := &outs.list[i]
		o.err = checkOutput(e, &e.jobs[o.input], o.configs)
	}
	failed := 0
	for _, r := range records {
		if r.err != nil || !r.verified || outs.list[r.out].err != nil ||
			(e.jobs[r.input].paper && (r.automated != 20 || r.human != 2)) {
			failed++
		}
	}
	return failed
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(records []jobRecord, u usage, failed int, setupSec float64) result {
	n := float64(len(records))
	durs := make([]float64, len(records))
	automated, human := 0, 0
	for i, r := range records {
		durs[i] = r.dur.Seconds()
		automated += r.automated
		human += r.human
	}
	m := map[string]metric{}
	set(m, "job_s.p50", quantile(durs, 0.5), "s")
	set(m, "job_s.p90", quantile(durs, 0.9), "s")
	set(m, "jobs_per_s", n/u.wall.Seconds(), "1/s")
	set(m, "cpu_s_per_job", u.cpu.Seconds()/n, "s")
	set(m, "alloc_mb_per_job", float64(u.allocs)/1e6/n, "MB")
	set(m, "setup_s", setupSec, "s")
	set(m, "leverage", ratio(float64(automated), float64(human)), "ratio")
	set(m, "human_prompts_per_job", float64(human)/n, "count")
	return result{Correct: failed == 0, Attempted: len(records), Failed: failed, Metrics: m}
}
