package core_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

func fuzzNet(tb testing.TB) *netmodel.Network {
	tb.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rg.Net
}

// jobFragment runs suites as a job on a real worker and returns the
// fragment exactly as a coordinator receives it: the worker's lazily
// encoded YSS1 arena, fetched over HTTP.
func jobFragment(tb testing.TB, suites ...string) []byte {
	tb.Helper()
	srv := service.WithNetwork(fuzzNet(tb), service.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	defer func() { cancel(); <-done }()

	c := client.New(ts.URL)
	j, err := c.SubmitJob(ctx, suites...)
	if err != nil {
		tb.Fatal(err)
	}
	if j, err = c.WaitJob(ctx, j.ID, time.Millisecond); err != nil || j.State != jobs.StateDone {
		tb.Fatalf("job = (%+v, %v), want done", j, err)
	}
	raw, err := c.JobTraceRaw(ctx, j.ID)
	if err != nil {
		tb.Fatal(err)
	}
	if !core.IsSnapshotArena(raw) {
		tb.Fatalf("worker answered %q..., want a YSS1 arena", raw[:min(len(raw), 16)])
	}
	return raw
}

// FuzzSnapshotArenaDecode mirrors FuzzArenaDecode one layer up: no
// input may panic, and any accepted input must round-trip stably — the
// re-encoding decodes to an equal trace and is itself a fixed point.
// (Byte-identity to the *input* is not required: a hand-crafted but
// valid snapshot may carry arena nodes the encoder would compact away.)
// The corpus starts from a fragment a real job produced — the bytes
// this decoder now reads from peers, not only from its own checkpoint
// files — decoded against a deterministic replica of the job's network.
func FuzzSnapshotArenaDecode(f *testing.F) {
	good := jobFragment(f, "default", "internal")
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:4])
	net := fuzzNet(f)
	if _, err := core.DecodeSnapshotArena(good, net); err != nil {
		f.Fatalf("the job fragment does not decode against a replica of its network: %v", err)
	}
	var empty bytes.Buffer
	if err := core.EncodeSnapshotArena(&empty, net, core.NewTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := core.DecodeSnapshotArena(data, net)
		if err != nil {
			return
		}
		var e1 bytes.Buffer
		if err := core.EncodeSnapshotArena(&e1, net, got); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		got2, err := core.DecodeSnapshotArena(e1.Bytes(), net)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v", err)
		}
		if !got2.Equal(got) {
			t.Fatal("trace changed across a re-encode cycle")
		}
		var e2 bytes.Buffer
		if err := core.EncodeSnapshotArena(&e2, net, got2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
