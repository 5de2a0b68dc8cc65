package client_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/core"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

// Example drives one worker the way the distributed coordinator does:
// push the network, run a suite as a job, wait for it, and decode the
// job's coverage fragment against the coordinator's own copy of the
// network.
func Example() {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		panic(err)
	}
	var netJSON bytes.Buffer
	if err := rg.Net.EncodeJSON(&netJSON); err != nil {
		panic(err)
	}

	// Stand-in for an empty yardstickd worker.
	srv := service.New(service.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.RunJobs(ctx)

	c := client.New(ts.URL)
	if _, err := c.LoadNetworkJSON(ctx, netJSON.Bytes()); err != nil {
		panic(err)
	}
	j, err := c.SubmitJob(ctx, "default", "internal")
	if err != nil {
		panic(err)
	}
	if j, err = c.WaitJob(ctx, j.ID, 10*time.Millisecond); err != nil {
		panic(err)
	}
	frag, err := c.JobTraceRaw(ctx, j.ID)
	if err != nil {
		panic(err)
	}
	tr, err := core.DecodeTraceJSON(rg.Net, bytes.NewReader(frag))
	if err != nil {
		panic(err)
	}
	fmt.Println("job:", j.State)
	fmt.Println("fragment is a YSS1 arena:", core.IsSnapshotArena(frag))
	fmt.Println("fragment marks rules:", tr.Stats().MarkedRules > 0)
	// Output:
	// job: done
	// fragment is a YSS1 arena: true
	// fragment marks rules: true
}
