package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/machines/cmmp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/vn"
)

// serve-mix traffic shape. The mix is an assumption, not measured
// traffic. It follows the only traffic the repository records, that of
// cmd/critique-load: a population of serveWindow distinct programs is
// sent once cold and then replayed serveRepeats times, with MiniID entry
// arguments multiplied by serveArgScale and vn-asm programs unscaled. The
// four machines share each population equally.
const (
	serveClients = 2
	// serveWindow and serveRepeats are critique-load's -programs and
	// -repeats defaults, with which it recorded its results: a tenth of the
	// requests execute. A repeat comes a whole population after the
	// previous send of its key, so the two clients rarely hold one key at
	// once.
	serveWindow      = 64
	serveRepeats     = 9
	servePopRequests = serveWindow * (serveRepeats + 1)
	// serveArgScale is critique-load's recorded -arg-scale: it makes a
	// cold ttda request cost milliseconds of simulation.
	serveArgScale = 100
	// serveRenderAhead is how many populations set-up renders before
	// timing; later ones are rendered on demand, outside request timing.
	serveRenderAhead = 4
	serveTimeout     = 60 * time.Second
)

// Server-side machine configurations the replay must mirror: serve's
// defaults for a spec that sets no knobs.
const (
	serveTTDAPEs    = 4
	serveTTDALat    = 2
	serveVNMemLat   = 4
	serveCmmpProcs  = 2
	serveCycleLimit = 50_000_000
)

// serveMachines are the machines the traffic targets, in equal shares.
var serveMachines = [...]string{"ttda", "direct", "cmmp", "vn"}

// serveReq is one distinct program of the population.
type serveReq struct {
	machine string
	body    []byte
	want    int64
	w       conformance.Workload
}

// serveMix is a closed loop of two clients against an in-process
// critique-serve over loopback HTTP.
type serveMix struct {
	seed uint64

	mu     sync.Mutex
	blocks []*serveReq // rendered blocks, by index
	cold   map[int][]byte

	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error

	next     int // next request index in the schedule
	rejected int // 503 responses
}

func newServeMix(seed uint64) bench { return &serveMix{seed: seed} }

// block renders the distinct program of block b; the same seed always
// gives the same program.
func (s *serveMix) block(b int) (*serveReq, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.blocks) <= b {
		w, err := renderWindow(s.seed, len(s.blocks)/serveWindow)
		if err != nil {
			return nil, err
		}
		s.blocks = append(s.blocks, w...)
	}
	return s.blocks[b], nil
}

// renderWindow derives population w from the seed: serveWindow
// conformance-generator programs, an equal share on each machine in a
// seeded order.
func renderWindow(seed uint64, w int) ([]*serveReq, error) {
	rng := sim.NewRNG(seed*1_000_003 + uint64(w))
	out := make([]*serveReq, serveWindow)
	for i, j := range rng.Perm(serveWindow) {
		machine := serveMachines[j%len(serveMachines)]
		g := conformance.Generate(rng.Uint64())
		spec := &serve.JobSpec{Machine: machine}
		if machine == "ttda" || machine == "direct" {
			g.N *= serveArgScale
			spec.Kind, spec.Program, spec.Args = serve.KindMiniID, g.IDSource(), []int64{g.N}
		} else {
			spec.Kind, spec.Program = serve.KindVNAsm, g.ASMSource()
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("render population %d: %w", w, err)
		}
		out[i] = &serveReq{machine: machine, body: body, want: g.Expected(), w: g}
	}
	return out, nil
}

// schedule maps request index i to its block: each population of
// serveWindow blocks is sent once in order, cold, then serveRepeats times
// more, before the next population starts.
func schedule(i int) int {
	return i/servePopRequests*serveWindow + i%serveWindow
}

func (s *serveMix) setup(*tracer, uint64) error {
	s.blocks = s.blocks[:0]
	if _, err := s.block(serveRenderAhead*serveWindow - 1); err != nil {
		return err
	}
	s.srv = serve.New(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func(hs *http.Server, done chan<- error) { done <- hs.Serve(ln) }(s.hs, s.served)
	s.client = &http.Client{
		Timeout:   serveTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	resp, err := s.client.Get(s.url + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	s.cold = map[int][]byte{}
	s.next = 0
	return nil
}

// close shuts the HTTP server and the service down and waits for both.
func (s *serveMix) close() {
	if s.hs == nil {
		return
	}
	s.hs.Close()
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.hs = nil
}

// serveSample is one request's observation.
type serveSample struct {
	i          int // index in the schedule
	r          *serveReq
	source     string // hit | miss | coalesced
	start, end time.Time
	clientMs   float64
	serverMs   float64
	ok         bool
}

// serveReplays caps how many misses per machine a traced run replays
// outside the server once its requests are done.
const serveReplays = 32

// serveTally folds request observations in as they arrive, so the
// benchmark's own memory barely grows with the run.
type serveTally struct {
	traced                                bool
	ok                                    int
	hit, cold, server, missServer, transp []float64
	perMachine                            map[string][]float64
	pops                                  map[int]*popSpan
	replays                               []serveSample
	replayed                              map[string]int
}

// popSpan is one population's requests seen so far and their extent.
type popSpan struct {
	n          int
	start, end time.Time
}

func (t *serveTally) add(sm serveSample) {
	p := t.pops[sm.i/servePopRequests]
	if p == nil {
		p = &popSpan{start: sm.start, end: sm.end}
		t.pops[sm.i/servePopRequests] = p
	}
	p.n++
	if sm.start.Before(p.start) {
		p.start = sm.start
	}
	if sm.end.After(p.end) {
		p.end = sm.end
	}
	if !sm.ok {
		return
	}
	t.ok++
	t.transp = append(t.transp, sm.clientMs-sm.serverMs)
	switch sm.source {
	case "hit":
		t.hit = append(t.hit, sm.clientMs)
		t.server = append(t.server, sm.serverMs)
		return
	case "miss":
		t.missServer = append(t.missServer, sm.serverMs)
		if t.traced && t.replayed[sm.r.machine] < serveReplays {
			t.replayed[sm.r.machine]++
			t.replays = append(t.replays, sm)
		}
	}
	t.cold = append(t.cold, sm.clientMs)
	t.perMachine[sm.r.machine] = append(t.perMachine[sm.r.machine], sm.clientMs)
}

// run keeps both clients busy until the deadline. An operation is one
// population: from the first of its requests sent to the last answered.
// Only populations sent whole within the run are timed; throughput
// counts every request.
func (s *serveMix) run(tr *tracer, until time.Time, m *measure) {
	start := time.Now()
	before, err := s.stats()
	m.check(err)
	s.mu.Lock()
	rejectedBefore := s.rejected
	s.mu.Unlock()
	var mu sync.Mutex
	t := &serveTally{traced: tr != nil, perMachine: map[string][]float64{},
		pops: map[int]*popSpan{}, replayed: map[string]int{}}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				sm, err := s.request(tr)
				mu.Lock()
				m.check(err)
				t.add(sm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.busy += time.Since(start).Seconds()
	after, err := s.stats()
	m.check(err)

	m.units += float64(t.ok)
	for _, p := range t.pops {
		if p.n == servePopRequests {
			m.ops++
			m.opMs = append(m.opMs, float64(p.end.Sub(p.start))/1e6)
		}
	}
	l := m.layer
	l["cold_p50_ms"] = percentile(t.cold, 50)
	l["cold_p90_ms"] = percentile(t.cold, 90)
	l["hit_p50_ms"] = percentile(t.hit, 50)
	l["hit_p99_ms"] = percentile(t.hit, 99)
	if !m.warm && (!tailOK(len(t.cold), 90) || !tailOK(len(t.hit), 99)) {
		m.check(fmt.Errorf("too few samples for the tails: %d cold, %d hits", len(t.cold), len(t.hit)))
	}
	l["serve.server_ms.miss"] = median(t.missServer)
	l["serve.server_ms.hit"] = median(t.server)
	l["serve.transport_ms"] = median(t.transp)
	for name, v := range t.perMachine {
		l["serve.cold_p50_ms."+name] = median(v)
	}
	l["serve.executions"] = float64(after.Executions - before.Executions)
	l["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
	lookups := float64(after.Cache.Hits + after.Cache.Misses - before.Cache.Hits - before.Cache.Misses)
	l["serve.hit_ratio"] = float64(after.Cache.Hits-before.Cache.Hits) / lookups
	l["serve.cache_corrupt"] = float64(after.Cache.Corruptions - before.Cache.Corruptions)
	l["serve.rejected_503"] = float64(s.rejected - rejectedBefore)
	if after.Cache.Corruptions != before.Cache.Corruptions {
		m.check(fmt.Errorf("serve: %d corrupt cache entries", after.Cache.Corruptions-before.Cache.Corruptions))
	}
	l["throughput_rps"] = m.units / m.busy

	// Traced runs replay some misses of each machine outside the server,
	// after the timed requests, under spans sharing each request's id.
	var overhead []float64
	for _, sm := range t.replays {
		ms, err := replay(tr, uint64(sm.i)+1, sm.r)
		m.check(err)
		if err == nil {
			overhead = append(overhead, sm.serverMs-ms)
		}
	}
	if len(overhead) > 0 {
		l["serve.overhead_ms"] = median(overhead)
	}
}

// stats fetches /v1/stats and fails on any decode problem.
func (s *serveMix) stats() (serve.ServerStats, error) {
	var st serve.ServerStats
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: decode: %w", err)
	}
	return st, nil
}

// request sends the next scheduled request and checks its answer.
func (s *serveMix) request(tr *tracer) (serveSample, error) {
	s.mu.Lock()
	i := s.next
	s.next++
	s.mu.Unlock()
	b := schedule(i)
	r, err := s.block(b)
	sm := serveSample{i: i, r: r, start: time.Now()}
	sm.end = sm.start
	if err != nil {
		return sm, err
	}

	span := tr.begin("serve.request", -1, uint64(i)+1)
	sm.start = time.Now()
	resp, err := s.client.Post(s.url+"/v1/run", "application/json", bytes.NewReader(r.body))
	if err != nil {
		sm.end = time.Now()
		tr.end(span)
		return sm, fmt.Errorf("serve %s block %d: %w", r.machine, b, err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sm.end = time.Now()
	sm.clientMs = float64(sm.end.Sub(sm.start)) / 1e6
	tr.end(span)
	if err != nil {
		return sm, fmt.Errorf("serve %s block %d: read: %w", r.machine, b, err)
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable {
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
		}
		return sm, fmt.Errorf("serve %s block %d: status %d: %s", r.machine, b, resp.StatusCode, bytes.TrimSpace(payload))
	}
	sm.source = resp.Header.Get("X-Cache")
	sm.serverMs, err = strconv.ParseFloat(resp.Header.Get("X-Wall-Ms"), 64)
	if err != nil {
		return sm, fmt.Errorf("serve %s block %d: X-Wall-Ms: %w", r.machine, b, err)
	}
	if err := s.checkBody(b, r, sm.source, payload); err != nil {
		return sm, err
	}
	sm.ok = true
	return sm, nil
}

// checkBody checks the answer against the generator's pure-Go fold, and
// that every later response for a key repeats the first one byte for byte.
func (s *serveMix) checkBody(b int, r *serveReq, source string, payload []byte) error {
	switch source {
	case "hit", "miss", "coalesced":
	default:
		return fmt.Errorf("serve block %d: X-Cache %q", b, source)
	}
	var res serve.RunResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("serve block %d: decode: %w", b, err)
	}
	var got string
	switch {
	case res.Result != nil:
		got = strconv.FormatInt(*res.Result, 10)
	case len(res.Results) == 1:
		got = res.Results[0]
	default:
		return fmt.Errorf("serve %s block %d: no answer in %s", r.machine, b, payload)
	}
	if want := strconv.FormatInt(r.want, 10); got != want {
		return fmt.Errorf("serve %s block %d: answer %s, want %s", r.machine, b, got, want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, seen := s.cold[b]
	if !seen {
		s.cold[b] = payload
		// A population two back is done: drop what the benchmark kept of
		// it, so its own memory does not grow with the run.
		if old := b - 2*serveWindow; old >= 0 {
			delete(s.cold, old)
			s.blocks[old] = nil
		}
		return nil
	}
	if !bytes.Equal(first, payload) {
		return fmt.Errorf("serve %s block %d: response differs between requests for one key", r.machine, b)
	}
	return nil
}

// replay runs a cold request's compile and simulation outside the server,
// on the configuration the server uses, under spans sharing the request's
// id; it returns their milliseconds.
func replay(tr *tracer, op uint64, r *serveReq) (float64, error) {
	start := time.Now()
	var answer int64
	cs := tr.begin("serve.compile", -1, op)
	var prog *graph.Program
	var asm *vn.Program
	var err error
	if r.machine == "ttda" || r.machine == "direct" {
		prog, err = id.Compile(r.w.IDSource())
	} else {
		asm, err = vn.Assemble(r.w.ASMSource())
	}
	tr.end(cs)
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", r.machine, err)
	}
	ss := tr.begin("serve.simulate."+r.machine, -1, op)
	switch r.machine {
	case "ttda":
		var res []token.Value
		m := core.NewMachine(core.Config{PEs: serveTTDAPEs, NetLatency: serveTTDALat}, prog)
		if res, err = m.Run(serveCycleLimit, token.Int(r.w.N)); err == nil {
			answer = res[0].I
		}
	case "direct":
		var res []token.Value
		if res, err = direct.Run(prog, token.Int(r.w.N)); err == nil {
			answer = res[0].I
		}
	case "cmmp":
		m := cmmp.New(cmmp.Config{Processors: serveCmmpProcs, Banks: serveCmmpProcs}, asm, 1)
		m.Core(1).Context(0).SetPC(len(asm.Instrs) - 1)
		if _, err = m.Run(serveCycleLimit); err == nil {
			answer = m.Peek(conformance.ResultAddr)
		}
	case "vn":
		mem := vn.NewLatencyMemory(serveVNMemLat)
		cpu := vn.NewCore(asm, mem, 1)
		eng := sim.NewEngine()
		eng.Register(mem)
		eng.Register(cpu)
		if _, ok := eng.Run(func() bool { return cpu.Halted() && mem.Pending() == 0 }, serveCycleLimit); !ok {
			err = errors.New("did not halt")
		}
		answer = mem.Peek(conformance.ResultAddr)
	}
	tr.end(ss)
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", r.machine, err)
	}
	if answer != r.want {
		return 0, fmt.Errorf("replay %s: answer %d, want %d", r.machine, answer, r.want)
	}
	return float64(time.Since(start)) / 1e6, nil
}
