package parsample

import (
	"sort"
	"strings"
	"time"

	"parsample/internal/datasets"
)

// Option configures a Pipeline built by New. Options compose, read at call
// sites, and leave the zero configuration unambiguous (every omitted option
// selects a documented default).
type Option func(*pipelineSettings)

// pipelineSettings is the resolved configuration behind New.
type pipelineSettings struct {
	cacheBytes     int64
	workers        int
	datasets       []string // nil: every built-in dataset is served
	cacheDir       string
	diskCacheBytes int64
}

// WithCacheBytes sets the artifact-store byte budget. The default (0 or
// omitted) is pipeline.DefaultStoreBytes, 256 MiB.
func WithCacheBytes(n int64) Option {
	return func(s *pipelineSettings) { s.cacheBytes = n }
}

// WithWorkers bounds concurrently executing stage kernels across all
// requests. The default (0 or omitted) is GOMAXPROCS. Worker count never
// changes results — only how many stage kernels run at once.
func WithWorkers(n int) Option {
	return func(s *pipelineSettings) { s.workers = n }
}

// WithBatchWindow is accepted for compatibility and ignored: the engine
// starts each correlation sweep as soon as its network is requested, and
// never holds it back to share a pass with other requests (DESIGN.md §7).
func WithBatchWindow(time.Duration) Option {
	return func(*pipelineSettings) {}
}

// WithCacheDir enables the persistent artifact tier: expensive stage
// artifacts (correlation networks, filtered subgraphs, cluster sets) are
// snapshotted to content-addressed blobs under dir and served back —
// checksum-verified — on later misses, so they survive process restarts.
// Any number of pipelines and processes may share one directory; snapshot
// publication is atomic, and replicas sharing a directory share their warm
// sets (DESIGN.md §10). New panics if dir cannot be created; callers
// surfacing configuration errors gracefully should ensure the directory
// exists first (os.MkdirAll), after which New cannot fail. The default
// (omitted or empty) keeps artifacts in memory only.
func WithCacheDir(dir string) Option {
	return func(s *pipelineSettings) { s.cacheDir = dir }
}

// WithDiskCacheBytes bounds the persistent tier's directory usage;
// least-recently-accessed snapshots are pruned beyond it. The default (0
// or omitted) is 1 GiB. Only meaningful with WithCacheDir.
func WithDiskCacheBytes(n int64) Option {
	return func(s *pipelineSettings) { s.diskCacheBytes = n }
}

// WithDatasets restricts which built-in evaluation datasets (YNG, MID,
// UNT, CRE) the pipeline serves to api.Request dataset sources, and
// pre-builds them at New time so the first request doesn't pay synthesis
// latency. Unknown names are ignored. Without this option every dataset is
// available, built lazily on first use.
func WithDatasets(names ...string) Option {
	return func(s *pipelineSettings) { s.datasets = append(s.datasets, names...) }
}

// datasetFor resolves a named evaluation dataset, honoring the
// WithDatasets restriction. The bool is false when the name is unknown or
// not served by this pipeline.
func (p *Pipeline) datasetFor(name string) (*datasets.Dataset, bool) {
	if !p.serves(name) {
		return nil, false
	}
	switch name {
	case "YNG":
		return datasets.YNG(), true
	case "MID":
		return datasets.MID(), true
	case "UNT":
		return datasets.UNT(), true
	case "CRE":
		return datasets.CRE(), true
	}
	return nil, false
}

// serves reports whether the WithDatasets restriction admits name (it
// does not check that name is a dataset).
func (p *Pipeline) serves(name string) bool { return p.datasets == nil || p.datasets[name] }

// servedDatasets names the datasets this pipeline serves, sorted, for error
// messages.
func (p *Pipeline) servedDatasets() string {
	if p.datasets == nil {
		return "YNG, MID, UNT, CRE"
	}
	names := make([]string, 0, len(p.datasets))
	for n := range p.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
