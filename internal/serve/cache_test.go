package serve

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/conformance"
)

// normKey normalizes a spec and returns its canonical key under a fixed
// code version.
func normKey(t *testing.T, spec *JobSpec) string {
	t.Helper()
	if err := spec.normalize(); err != nil {
		t.Fatalf("normalize(%+v): %v", spec, err)
	}
	return spec.Key("test-code")
}

// TestKeyDistinguishesProgramForms: the same generated workload expressed
// as MiniID and as vn assembly must hash to different keys — they are
// different programs for different machines, even though the differential
// harness proves they compute the same answer.
func TestKeyDistinguishesProgramForms(t *testing.T) {
	w := conformance.Generate(5)
	idKey := normKey(t, &JobSpec{Kind: KindMiniID, Machine: "ttda", Program: w.IDSource(), Args: []int64{w.N}})
	asmKey := normKey(t, &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: w.ASMSource()})
	if idKey == asmKey {
		t.Fatalf("minid and vnasm renderings share key %s", idKey)
	}
}

// TestKeyDistinguishesConfig: every meaningful field — machine knobs,
// args, program, code version — must change the key, while inapplicable knobs and explicit defaults
// must not.
func TestKeyDistinguishesConfig(t *testing.T) {
	ttda := func(c *Config) *JobSpec {
		return &JobSpec{Kind: KindMiniID, Machine: "ttda", Program: doubleID, Args: []int64{21}, Config: c}
	}
	variants := map[string]*JobSpec{
		"base":        ttda(nil),
		"pes":         ttda(&Config{PEs: 8}),
		"net latency": ttda(&Config{NetLatency: 5}),
		"max cycles":  ttda(&Config{MaxCycles: 1_000_000}),
		"args":        {Kind: KindMiniID, Machine: "ttda", Program: doubleID, Args: []int64{22}},
		"program":     {Kind: KindMiniID, Machine: "ttda", Program: "def main(n) = n + 2;", Args: []int64{21}},
		"machine":     {Kind: KindMiniID, Machine: "interp", Program: doubleID, Args: []int64{21}},
		"vn contexts": {Kind: KindVNAsm, Machine: "vn", Program: storeAsm(7), Config: &Config{Contexts: 2}},
		"vn latency":  {Kind: KindVNAsm, Machine: "vn", Program: storeAsm(7), Config: &Config{MemLatency: 8}},
		"combining":   {Kind: KindVNAsm, Machine: "ultra", Program: storeAsm(7), Config: &Config{Combining: true}},
		"experiment":  {Experiment: "E3"},
	}
	seen := map[string]string{}
	for name, spec := range variants {
		key := normKey(t, spec)
		if prev, dup := seen[key]; dup {
			t.Errorf("variants %q and %q collide on key %s", name, prev, key)
		}
		seen[key] = name
	}

	// Explicitly writing the defaults must address the same entry as
	// omitting them entirely.
	if a, b := normKey(t, ttda(nil)), normKey(t, ttda(&Config{PEs: 4, NetLatency: 2, MaxCycles: 50_000_000})); a != b {
		t.Errorf("explicit defaults key %s != omitted-config key %s", b, a)
	}
	// A knob the chosen machine ignores is zeroed away and must not
	// fragment the cache.
	vn := normKey(t, &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: storeAsm(7)})
	vnWithPEs := normKey(t, &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: storeAsm(7), Config: &Config{PEs: 9, Combining: true}})
	if vn != vnWithPEs {
		t.Errorf("inapplicable knobs changed the key: %s vs %s", vn, vnWithPEs)
	}
	// The code version stamp keys the cache across simulator revisions.
	spec := ttda(nil)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Key("rev-a") == spec.Key("rev-b") {
		t.Error("code version does not participate in the key")
	}
}

// TestHitByteIdenticalToColdRun: a cache hit must be byte-for-byte the
// cold run's response — and a cold run on a fresh server must reproduce
// it exactly, which is the determinism claim the cache design rests on.
func TestHitByteIdenticalToColdRun(t *testing.T) {
	w := conformance.Generate(11)
	body := runBody(t, KindMiniID, "ttda", w.IDSource(), []int64{w.N})

	s1 := newTestServer(t, Options{})
	cold := doJSON(t, s1, "POST", "/v1/run", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold run status %d: %s", cold.Code, cold.Body)
	}
	hit := doJSON(t, s1, "POST", "/v1/run", body)
	if hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second run was not a hit (X-Cache %q)", hit.Header().Get("X-Cache"))
	}
	if hit.Body.String() != cold.Body.String() {
		t.Errorf("hit response differs from cold response:\ncold: %s\nhit:  %s", cold.Body, hit.Body)
	}

	s2 := newTestServer(t, Options{})
	cold2 := doJSON(t, s2, "POST", "/v1/run", body)
	if cold2.Body.String() != cold.Body.String() {
		t.Errorf("fresh-server cold run is not byte-identical:\n%s\nvs\n%s", cold.Body, cold2.Body)
	}
}

// TestCorruptionDetectedNotServed is the harness-teeth test for cache
// integrity: a corrupted entry must be detected on read, evicted, and
// re-executed — never served.
func TestCorruptionDetectedNotServed(t *testing.T) {
	s := newTestServer(t, Options{})
	body := runBody(t, KindVNAsm, "vn", storeAsm(7), nil)
	cold := doJSON(t, s, "POST", "/v1/run", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold run status %d: %s", cold.Code, cold.Body)
	}
	key := cold.Header().Get("X-Key")

	// Sanity: uncorrupted, the entry is served.
	if rr := doJSON(t, s, "GET", "/v1/results/"+key, ""); rr.Code != http.StatusOK {
		t.Fatalf("pre-corruption fetch status %d", rr.Code)
	}

	if !s.Cache().corrupt(key) {
		t.Fatalf("corrupt(%s) found no entry", key)
	}
	rr := doJSON(t, s, "GET", "/v1/results/"+key, "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("corrupted entry served with status %d: %s", rr.Code, rr.Body)
	}
	st := s.Cache().Stats()
	if st.Corruptions != 1 {
		t.Errorf("corruptions = %d, want 1", st.Corruptions)
	}
	if s.Cache().Len() != 0 {
		t.Errorf("corrupted entry was not evicted (len %d)", s.Cache().Len())
	}

	// The next submission re-executes and heals the entry with the exact
	// original bytes.
	redo := doJSON(t, s, "POST", "/v1/run", body)
	if got := redo.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("post-corruption run X-Cache = %q, want miss (re-execution)", got)
	}
	if redo.Body.String() != cold.Body.String() {
		t.Errorf("re-execution differs from original cold run")
	}
	if rr := doJSON(t, s, "GET", "/v1/results/"+key, ""); rr.Code != http.StatusOK || rr.Body.String() != cold.Body.String() {
		t.Errorf("healed entry fetch = %d, body match %t", rr.Code, rr.Body.String() == cold.Body.String())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("k0 survived eviction")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Error("k2 missing")
	}
	// Touching k1 makes k2 the LRU victim for the next insert.
	if _, ok := c.Get("k1"); !ok {
		t.Error("k1 missing")
	}
	c.Put("k3", []byte{3})
	if _, ok := c.Get("k2"); ok {
		t.Error("k2 survived eviction despite being LRU")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 evictions and 2 entries", st)
	}
}
