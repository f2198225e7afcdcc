package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/batfish"
	"repro/internal/batfish/rest"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// workload is one set of inputs the benchmark runs. setup turns a seed
// into the run's jobs and starts whatever the jobs talk to; the program
// under test only ever sees the generated inputs.
type workload struct {
	name  string
	setup func(seed int64, trace bool) (*env, error)
}

// The three workloads; README.md records why each was chosen.
var workloads = []workload{
	{name: "notransit-local", setup: setupNoTransitLocal},
	{name: "notransit-sharded", setup: setupNoTransitSharded},
	{name: "translate-table2", setup: setupTranslate},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// Workload shapes; the seed picks the graphs.
var (
	// localSize is one size, not a range: with several sizes the job times
	// form one cluster per size, and the median jumps between clusters
	// when the machine slows down.
	localSize = 42
	// localPool bounds the distinct local jobs a run can reach; a run
	// does not repeat a graph, so the verification cache only writes.
	localPool = 64
	// shardedSize and shardedPool: the sharded workload cycles a small
	// pool of graphs so the shards' parse caches are read across jobs.
	shardedSize = 24
	shardedPool = 32
	// shardCount is the number of in-process shards behind the client.
	shardCount = 2
)

// jobInput is one job's input: a topology and simulated-LLM seed for a
// synthesis job, or the injected error classes for a translation job.
type jobInput struct {
	topo    *topology.Topology
	llmSeed int64
	classes []llm.TranslateError
	// paper marks the translation job with every Table 2 class injected,
	// whose prompt counts the paper reports (20 automated, 2 human).
	paper bool
}

// env is a set-up workload: its jobs and the services they use.
type env struct {
	jobs []jobInput
	// workers is the per-router repair parallelism of a synthesis job
	// (1: the paper's sequential loop).
	workers int
	// warmup is the number of untimed jobs run before the window, so
	// lazily filled caches that outlive a job are filled first.
	warmup int
	// cycle is the number of consecutive jobs that make up the workload's
	// mix, such as every error subset once. The window ends on a whole
	// number of cycles, so every run has the same mix.
	cycle int
	// source and sourceDev are the translation input and its parse.
	source    string
	sourceDev *netcfg.Device
	sharded   *rest.ShardedClient
	shards    []*shard
}

// runJob runs one job. reg and tr are the program's own telemetry
// options; both nil for an untraced job.
func (e *env) runJob(in *jobInput, reg *obs.Registry, tr *obs.Tracer) (*repro.Result, error) {
	if in.topo == nil {
		return repro.Translate(e.source, repro.TranslateOptions{
			ErrorClasses: in.classes, Metrics: reg, Trace: tr})
	}
	opts := repro.SynthesizeOptions{Seed: in.llmSeed, Parallelism: e.workers, Metrics: reg, Trace: tr}
	if e.sharded != nil {
		opts.Verifier = e.sharded
	}
	return repro.Synthesize(in.topo, opts)
}

// close stops the shards and waits for their servers to return.
func (e *env) close() {
	for _, s := range e.shards {
		s.stop()
	}
}

// seedStream derives the per-job seeds of a run; seeds are positive so
// that none selects a program default.
func seedStream(seed int64) func() int64 {
	rng := rand.New(rand.NewSource(seed))
	return func() int64 { return 1 + rng.Int63n(1<<40) }
}

// randomGraphs generates n seeded random graphs of the given size.
// A job's time grows with its number of ISP attachments, which the random
// family spreads widely at one size; a graph is kept only when that number
// is within one of the family's median, 0.9 per router, so that a run's
// figures depend on the size more than on which graphs the seed drew.
func randomGraphs(seed int64, n, size int) ([]jobInput, error) {
	next := seedStream(seed)
	jobs := make([]jobInput, n)
	want := int(math.Round(0.9 * float64(size)))
	for i := range jobs {
		for {
			topo, err := netgen.RandomWith(size, netgen.RandomOpts{Seed: next(), ExtraEdges: -1})
			if err != nil {
				return nil, err
			}
			if a := len(lightyear.ISPAttachments(topo)); a >= want-1 && a <= want+1 {
				jobs[i] = jobInput{topo: topo, llmSeed: next()}
				break
			}
		}
	}
	return jobs, nil
}

func setupNoTransitLocal(seed int64, _ bool) (*env, error) {
	jobs, err := randomGraphs(seed, localPool, localSize)
	if err != nil {
		return nil, err
	}
	return &env{jobs: jobs, workers: 1, warmup: 1, cycle: 1}, nil
}

func setupNoTransitSharded(seed int64, trace bool) (*env, error) {
	jobs, err := randomGraphs(seed, shardedPool, shardedSize)
	if err != nil {
		return nil, err
	}
	e := &env{jobs: jobs, workers: runtime.NumCPU(), warmup: len(jobs), cycle: 1}
	endpoints := make([]string, 0, shardCount)
	for i := 0; i < shardCount; i++ {
		s, err := startShard(trace)
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, s)
		endpoints = append(endpoints, s.url)
	}
	if e.sharded, err = rest.NewShardedClient(endpoints); err == nil {
		err = e.sharded.Health()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func setupTranslate(seed int64, _ bool) (*env, error) {
	source := repro.ExampleCiscoConfig()
	parsed := batfish.ParseAndCheck(source)
	if len(parsed.CheckWarnings) > 0 {
		return nil, fmt.Errorf("bundled Cisco config: %s", parsed.CheckWarnings[0])
	}
	all := llm.AllTranslateErrors()
	order := rand.New(rand.NewSource(seed)).Perm(1 << len(all))
	jobs := make([]jobInput, len(order))
	for i, mask := range order {
		classes := []llm.TranslateError{}
		for b, class := range all {
			if mask&(1<<b) != 0 {
				classes = append(classes, class)
			}
		}
		jobs[i] = jobInput{classes: classes, paper: len(classes) == len(all)}
	}
	return &env{jobs: jobs, workers: 1, warmup: len(jobs), cycle: len(jobs),
		source: source, sourceDev: parsed.Device}, nil
}

// shard is one in-process batfishd shard on loopback: the suite handler
// with a parse cache shared across requests. In a traced run the handler
// is wrapped by the benchmark's own timing, and the parse cache reports
// its parses to a tracer the benchmark drains per job.
type shard struct {
	url    string
	srv    *http.Server
	done   chan struct{}
	parses *netcfg.ParseCache
	// tracer and sink see the shard's parse spans; nil when untraced.
	tracer *obs.Tracer
	sink   *eventSink
	// busyNS and respBytes are the handler's summed wall time and the
	// response bytes it wrote (traced runs only).
	busyNS    atomic.Int64
	respBytes atomic.Int64
}

func startShard(trace bool) (*shard, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &shard{url: "http://" + ln.Addr().String(), done: make(chan struct{}), parses: batfish.NewParseCache()}
	var h http.Handler = rest.NewHandlerOpts(rest.HandlerOptions{Parses: s.parses})
	if trace {
		s.sink = &eventSink{}
		s.tracer = obs.NewTracer(s.sink)
		s.parses.SetObs(nil, s.tracer)
		h = s.timed(h)
	}
	s.srv = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

func (s *shard) stop() {
	_ = s.srv.Close() // only listener and connection close errors; nothing to recover
	<-s.done
}

// timed wraps the shard's handler with the benchmark's own timing.
func (s *shard) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.busyNS.Add(int64(time.Since(start)))
		s.respBytes.Add(cw.n)
	})
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
