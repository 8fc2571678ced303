package trace

import (
	"bytes"
	"reflect"
	"testing"

	"affinitycluster/internal/model"
)

// maxFuzzRecords bounds how many records one fuzz input may yield, so a
// long accepted stream cannot stall the fuzzer.
const maxFuzzRecords = 64

// FuzzTraceReader drives the JSONL reader with arbitrary bytes. The
// contract: every input is either rejected with an error (no panic) or
// every record it yields is one the writer accepts under the same header,
// and re-reading the written stream gives back exactly those records.
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte(`{"version":1,"format":"jsonl","types":2,"description":"seed"}
{"id":0,"vec":[1,2],"at":0.5,"hold":10}
{"id":3,"vec":[0,1],"at":2,"hold":1.25,"prio":1}
`))
	f.Add([]byte(`{"version":1,"format":"jsonl","types":1}` + "\n\n"))
	f.Add([]byte(`{"version":1,"format":"jsonl","types":1}
{"id":2,"vec":[1],"at":1,"hold":1}
{"id":1,"vec":[1],"at":1,"hold":1}
`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: acceptable for arbitrary input
		}
		var got []model.TimedRequest
		for len(got) < maxFuzzRecords {
			r, ok, err := rd.Next()
			if err != nil || !ok {
				break // a rejected line ends the stream; the prefix must still round-trip
			}
			got = append(got, r)
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf, rd.Description(), rd.Types())
		if err != nil {
			t.Fatalf("writer rejected the accepted header (types %d): %v", rd.Types(), err)
		}
		for i, r := range got {
			if err := w.Write(r); err != nil {
				t.Fatalf("writer rejected accepted record %d %+v: %v", i, r, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		again, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("re-reading the written header: %v", err)
		}
		if again.Types() != rd.Types() || again.Description() != rd.Description() {
			t.Fatalf("header changed on round trip: types %d→%d, description %q→%q",
				rd.Types(), again.Types(), rd.Description(), again.Description())
		}
		var back []model.TimedRequest
		for {
			r, ok, err := again.Next()
			if err != nil {
				t.Fatalf("re-reading record %d: %v", len(back), err)
			}
			if !ok {
				break
			}
			back = append(back, r)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("records changed on round trip\ngot  %+v\nwant %+v", back, got)
		}
	})
}
