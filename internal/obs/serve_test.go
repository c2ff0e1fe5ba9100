package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.count").Add(7)
	addr, closeFn, err := Serve("127.0.0.1:0", reg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["test.count"] != 7 {
		t.Fatalf("served snapshot = %+v", snap)
	}

	// Without withPprof the profiling endpoints must not exist.
	if code, _ := get(t, "http://"+addr+"/debug/pprof/"); code == http.StatusOK {
		t.Fatal("pprof served without withPprof")
	}
}

func TestServeWithPprof(t *testing.T) {
	addr, closeFn, err := Serve("127.0.0.1:0", NewRegistry(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	code, body := get(t, "http://"+addr+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if len(body) == 0 {
		t.Fatal("empty pprof index")
	}
	// A concrete profile must be retrievable, not just the index.
	if code, _ := get(t, "http://"+addr+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Fatalf("goroutine profile status %d", code)
	}
}
