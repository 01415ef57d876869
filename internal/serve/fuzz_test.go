package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/vn"
)

// FuzzSpecKey throws arbitrary request bodies at spec decoding and
// keying. Decoding plus normalization must never panic, and every
// accepted spec must be a fixed point of the cache key: re-marshalling
// the normalized spec and decoding it again addresses the same entry. A
// spec whose key drifted across that round trip would split one
// configuration across several cache entries, or let two configurations
// share one.
func FuzzSpecKey(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"minid","machine":"ttda","program":"def main(n) = n * 2;","args":[21]}`,
		`{"kind":"minid","machine":"ttda","program":"def main(n) = n;","args":[3],"config":{"pes":8,"net_latency":5,"max_cycles":1000}}`,
		`{"kind":"minid","machine":"direct","program":"def main(n) = n;","args":[3],"config":{"pes":9,"contexts":2}}`,
		`{"kind":"vnasm","machine":"vn","program":"halt\n","config":{"contexts":2,"mem_latency":8}}`,
		`{"kind":"vnasm","machine":"ultra","program":"halt\n","config":{"combining":true,"pes":4}}`,
		`{"experiment":"E3","config":{"pes":4}}`,
		`{"kind":"minid","machine":"ttda","program":"\ud800"}`,
		`{"kind":"minid","machine":"ttda","program":"x"} trailing`,
		`{"config":{"compiled":true}}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return // rejected cleanly; panics are the fuzzer's failure mode
		}
		key := spec.Key("fuzz")
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		spec2, err := decodeJobSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v\nbody: %q\nre-marshalled: %s", err, body, again)
		}
		if key2 := spec2.Key("fuzz"); key2 != key {
			t.Fatalf("key changed across re-marshal: %s vs %s\nbody: %q\nre-marshalled: %s", key, key2, body, again)
		}
	})
}

// FuzzBaselineRun runs every vn assembly program the assembler accepts
// on the four serve baselines with a small cycle limit. A job may fail
// with a status; it must never panic, since a panic on the async path
// takes the whole server down.
func FuzzBaselineRun(f *testing.F) {
	for _, src := range []string{
		"li r1, 100000\nld r2, r1, 0\nhalt",
		"li r1, -1\nst r1, r1, 0\nhalt",
		"li r1, 4294967360\nli r2, 7\nst r2, r1, 0\nhalt",
		"li r1, 64\nli r2, 1\nfaa r3, r1, r2\ntas r4, r1\nhalt",
		"cns r1, r0\nprd r1, r0\nhalt",
		"loop: j loop",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := vn.Assemble(src); err != nil {
			return
		}
		for _, machine := range []string{"cmmp", "cmstar", "ultra", "hep"} {
			spec := &JobSpec{Kind: KindVNAsm, Machine: machine, Program: src, Config: &Config{MaxCycles: 5_000}}
			if spec.normalize() != nil {
				return
			}
			runJob(context.Background(), spec)
		}
	})
}
