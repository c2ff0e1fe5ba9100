package trace

import (
	"bytes"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/workload"
)

// FuzzTraceRoundTrip feeds arbitrary bytes to both loaders: they must
// reject or accept the same inputs without panicking, an accepted input's
// packed replay must yield exactly the decoded instructions, and anything
// accepted must re-encode to exactly the input bytes (the reader accepts
// only canonical encodings, so the codec is a bijection on its valid
// range). The checked-in corpus holds version-2 encodings, valid and not,
// plus one version-1 file that both loaders must reject.
func FuzzTraceRoundTrip(f *testing.F) {
	// Seed with real encodings so the fuzzer starts inside the valid
	// format rather than spending the budget on magic-string discovery.
	gen, err := workload.New("gzip", 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []uint64{0, 1, 33} {
		var buf bytes.Buffer
		tr := Record(gen, n, Meta{Name: "gzip", SourceKind: SourceBench, SourceID: "gzip", Seed: 1})
		if err := tr.Pack().write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("CSIM-TRACE garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		p, perr := ReadPacked(bytes.NewReader(data))
		if (err == nil) != (perr == nil) {
			t.Fatalf("loaders disagree: Read %v, ReadPacked %v", err, perr)
		}
		if err != nil {
			return
		}
		// The packed load replays exactly the decoded instructions under
		// the same identity and fingerprint.
		if p.Meta != tr.Meta || p.Len != len(tr.Instrs) || p.Fingerprint() != tr.Fingerprint() {
			t.Fatalf("packed load identity %+v/%d/%016x, decoded %+v/%d/%016x",
				p.Meta, p.Len, p.Fingerprint(), tr.Meta, len(tr.Instrs), tr.Fingerprint())
		}
		rp := p.Replayer()
		var in isa.Instruction
		for i := range tr.Instrs {
			rp.Next(&in)
			if in != tr.Instrs[i] {
				t.Fatalf("packed replay instruction %d: %+v, decoded %+v", i, in, tr.Instrs[i])
			}
		}
		var buf bytes.Buffer
		if err := tr.Pack().write(&buf); err != nil {
			t.Fatalf("re-encoding an accepted trace failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("an accepted input re-encodes to different bytes:\n  input:      %x\n  re-encoded: %x", data, buf.Bytes())
		}
		if tr.Fingerprint() != p.Fingerprint() {
			t.Fatalf("decoded fingerprint %016x, header %016x", tr.Fingerprint(), p.Fingerprint())
		}
	})
}
