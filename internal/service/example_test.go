package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

// Example shows the remote workflow: submit a suite as a job, poll it
// until it finishes, then read the coverage gaps.
func Example() {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		panic(err)
	}
	srv := service.WithNetwork(rg.Net)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.RunJobs(ctx) // the job queue's worker
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs?suite=default,connected", "", nil)
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Println("submit:", resp.Status)

	var job service.JobStatus
	for !job.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		poll, err := http.Get(ts.URL + resp.Header.Get("Location"))
		if err != nil {
			panic(err)
		}
		err = json.NewDecoder(poll.Body).Decode(&job)
		poll.Body.Close()
		if err != nil {
			panic(err)
		}
	}
	fmt.Println("job:", job.State)

	resp, err = http.Get(ts.URL + "/gaps")
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Println("gaps:", resp.Status)
	// Output:
	// submit: 202 Accepted
	// job: done
	// gaps: 200 OK
}
