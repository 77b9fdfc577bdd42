// Serving: the v1 service API end to end in one process — the
// `parsample serve` daemon over a shared pipeline, a synchronous request repeated to show
// the artifact store turning a cold run into a microsecond warm hit, and
// an async job followed over its SSE progress stream.
//
// In production the daemon runs standalone (`parsample serve -addr :8080`)
// and clients speak plain HTTP/JSON; this example wires
// the same pieces through httptest so it runs hermetically.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"parsample"
	"parsample/api"
	"parsample/internal/server"
)

func main() {
	// One shared pipeline behind the HTTP tier: every request funnels into
	// the same memoizing store.
	p := parsample.New(parsample.WithCacheBytes(128 << 20))
	ts := httptest.NewServer(server.New(server.Config{Pipeline: p}))
	defer ts.Close()

	reqBody := `{
		"network": {"synthesis": {"genes": 512, "samples": 48, "modules": 8, "moduleSize": 10, "seed": 3}},
		"filter": {"algorithm": "chordal-nocomm", "ordering": "HD", "p": 4, "seed": 3}
	}`

	// Synchronous run, twice: the second is served from cache.
	for _, label := range []string{"cold", "warm"} {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/pipeline", "application/json", strings.NewReader(reqBody))
		if err != nil {
			log.Fatal(err)
		}
		var r api.Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("%s run: %v  cache=%s  network %d/%d  filtered %d  clusters %d  scored %d\n",
			label, time.Since(start).Round(time.Microsecond), resp.Header.Get(server.CacheHeader),
			r.Network.Vertices, r.Network.Edges, r.Filtered.Edges, len(r.Clusters), len(r.Scores))
	}

	// Async job with a different variant (shares the network and its
	// ordering artifacts with the runs above), followed over SSE.
	jobBody := strings.Replace(reqBody, `"p": 4`, `"p": 16`, 1)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(jobBody))
	if err != nil {
		log.Fatal(err)
	}
	var ji struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted %s, streaming events:\n", ji.ID)

	ev, err := http.Get(ts.URL + "/v1/jobs/" + ji.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer ev.Body.Close()
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		fmt.Printf("  %s\n", strings.TrimPrefix(line, "data: "))
		if strings.Contains(line, `"done"`) {
			break
		}
	}

	var stats struct {
		Store parsample.PipelineStats `json:"store"`
	}
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		log.Fatal(err)
	}
	json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	fmt.Printf("store: %d misses, %d hits, %d shared, %d entries, %d KiB resident\n",
		stats.Store.Misses, stats.Store.Hits, stats.Store.Shared,
		stats.Store.Entries, stats.Store.BytesUsed>>10)
}
