package dist

import (
	"fmt"
	"testing"

	"bce/internal/metrics"
)

// The wire decoders face bytes from the network; fuzz them for panics
// and for decode/encode/decode instability. Seed corpora cover the
// happy path, every validation branch, and a few JSON edge shapes.

func FuzzDecodeBatch(f *testing.F) {
	valid := sampleBatch()
	if data, err := EncodeBatch(valid); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"schema":2,"jobs":[{"key":"k","spec":{}}]}`))
	f.Add([]byte(`{"schema":0,"jobs":[]}`))
	f.Add([]byte(`{"schema":2,"jobs":[{"key":"","spec":{}}]}`))
	f.Add([]byte(`{"schema":2,"jobs":[{"key":"a","spec":{}},{"key":"a","spec":{}}]}`))
	f.Add([]byte(`{"schema":2,"job_timeout_ms":-5,"jobs":[{"key":"k","spec":{}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte("{\"schema\":1e9}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same
		// validated shape (idempotent normalization).
		out, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("decoded batch failed to encode: %v", err)
		}
		b2, err := DecodeBatch(out)
		if err != nil {
			t.Fatalf("re-decode of encoded batch failed: %v\npayload: %s", err, out)
		}
		if len(b2.Jobs) != len(b.Jobs) || b2.Schema != b.Schema {
			t.Fatalf("round trip drift: %+v -> %+v", b, b2)
		}
	})
}

func FuzzDecodeBatchResult(f *testing.F) {
	f.Add([]byte(`{"schema":2,"worker":"w","results":[{"key":"k","run":{}}]}`))
	f.Add([]byte(`{"schema":2,"results":[{"key":"k","err":"boom","transient":true}]}`))
	f.Add([]byte(`{"schema":2,"results":[{"key":"k"}]}`))
	f.Add([]byte(`{"schema":2,"results":[{"key":"k","run":{},"err":"x"}]}`))
	f.Add([]byte(`{"schema":1,"results":[]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeBatchResult(data)
		if err != nil {
			return
		}
		out, err := EncodeBatchResult(r)
		if err != nil {
			t.Fatalf("decoded result failed to encode: %v", err)
		}
		r2, err := DecodeBatchResult(out)
		if err != nil {
			t.Fatalf("re-decode of encoded result failed: %v\npayload: %s", err, out)
		}
		if len(r2.Results) != len(r.Results) || r2.Schema != r.Schema {
			t.Fatalf("round trip drift: %+v -> %+v", r, r2)
		}
	})
}

// FuzzHedgedMergeDedup drives the exactly-once merge guard with two
// replies for the same batch — the hedged-dispatch shape, where a
// primary and a hedge can both legally answer. Fuzzed per-job outcome
// masks and an optional unknown-key corruption must never produce a
// duplicate OnResult call, and a rejected reply must merge nothing.
func FuzzHedgedMergeDedup(f *testing.F) {
	f.Add(uint8(0b1111), uint8(0b1111), false)
	f.Add(uint8(0b1010), uint8(0b0101), false)
	f.Add(uint8(0), uint8(0b1111), false)
	f.Add(uint8(0b1111), uint8(0b1111), true)
	f.Add(uint8(0b0011), uint8(0b1100), true)
	f.Fuzz(func(t *testing.T, mask1, mask2 uint8, corruptSecond bool) {
		const njobs = 4
		batch := Batch{Schema: SchemaVersion, Jobs: make([]Job, njobs)}
		for i := range batch.Jobs {
			batch.Jobs[i].Key = fmt.Sprintf("k%d", i)
		}
		calls := map[string]int{}
		coord, err := NewCoordinator(Options{
			Workers:  []string{"http://unused"},
			OnResult: func(_ string, job Job, _ metrics.Run) { calls[job.Key]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		coord.merged = map[string]struct{}{}

		reply := func(worker string, mask uint8) BatchResult {
			r := BatchResult{Schema: SchemaVersion, Worker: worker}
			for i, j := range batch.Jobs {
				if mask&(1<<i) != 0 {
					r.Results = append(r.Results, JobResult{Key: j.Key, Run: &metrics.Run{}})
				} else {
					r.Results = append(r.Results, JobResult{Key: j.Key, Err: "deadline", Transient: true})
				}
			}
			return r
		}
		tk := &task{batch: batch}
		r1 := reply("primary", mask1)
		r2 := reply("hedge", mask2)
		if corruptSecond {
			r2.Results[njobs-1].Key = "unknown-key"
		}

		okIn := func(mask uint8, i int) bool { return mask&(1<<i) != 0 }
		if _, err := coord.merge(tk, r1); err != nil {
			t.Fatalf("uncorrupted primary reply rejected: %v", err)
		}
		before := len(calls)
		_, err2 := coord.merge(tk, r2)
		if corruptSecond {
			if err2 == nil {
				t.Fatal("unknown-key reply accepted")
			}
			if len(calls) != before {
				t.Fatalf("rejected reply still merged %d jobs", len(calls)-before)
			}
		}
		for i, j := range batch.Jobs {
			want := 0
			if okIn(mask1, i) || (err2 == nil && okIn(mask2, i)) {
				want = 1
			}
			if calls[j.Key] > 1 {
				t.Fatalf("job %s merged %d times", j.Key, calls[j.Key])
			}
			if calls[j.Key] != want {
				t.Fatalf("job %s merged %d times, want %d (masks %b/%b corrupt=%v)",
					j.Key, calls[j.Key], want, mask1, mask2, corruptSecond)
			}
		}
	})
}
