// Package service is the simulation-as-a-service layer behind cmd/simd:
// a long-running HTTP/JSON daemon answering routing what-if queries
// ("this app mix, this routing mode, this background load → predicted
// runtime, stall ratio, tail latency") from config-keyed pools of warm
// core.Machines.
//
// The hard contract is determinism: one request produces one byte
// sequence. The same canonical query returns a byte-identical response
// body whether the machine pool is cold or warm, whether the ensemble
// fans out over 1 worker or 8, and whether the request executed alone or
// was coalesced with concurrent duplicates — the service inherits the
// simulator's seed-determinism and the seed-order merge of
// internal/parallel, and the test suite checks the inheritance on the
// full HTTP path rather than trusting the layering. Wall-clock
// observability (latency, pool hit rate, queue depth) is therefore
// confined to /metrics and never enters a query response.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Request is the wire format of one what-if query (POST /v1/query).
// Unknown fields are rejected so schema typos fail loudly.
type Request struct {
	// Topology names the machine configuration: "theta-mini" (default),
	// "cori-mini", "theta", "cori", or "test" (a tiny 4-group dragonfly
	// for smoke checks). It is the machine-pool key.
	Topology string `json:"topology,omitempty"`
	// App is the proxy application, e.g. "MILC" (see apps.Names).
	App string `json:"app"`
	// Nodes is the job size in compute nodes.
	Nodes int `json:"nodes"`
	// Modes lists the routing modes to compare ("AD0".."AD3"); empty
	// means all four.
	Modes []string `json:"modes,omitempty"`
	// Runs is the number of seeded runs per mode (default 4).
	Runs int `json:"runs,omitempty"`
	// Seed is the base seed; run i uses Seed+i (default 1). Must be
	// non-negative.
	Seed *int64 `json:"seed,omitempty"`
	// Background describes the production noise filling the rest of the
	// machine. Omitted means the paper's production default (75%
	// utilization, system-default routing); utilization 0 runs the app
	// on an otherwise idle machine.
	Background *BackgroundRequest `json:"background,omitempty"`
	// Tenant attributes the request for per-tenant concurrency limits
	// (default "default"). It never influences the response bytes.
	Tenant string `json:"tenant,omitempty"`
}

// BackgroundRequest selects the background load of a query.
type BackgroundRequest struct {
	// Utilization is the fraction (0..1) of the machine's remaining
	// nodes kept busy with noise jobs.
	Utilization float64 `json:"utilization"`
	// Mode, when set, routes all background traffic with one mode;
	// empty keeps the Cray default environment (AD0, alltoall AD1).
	Mode string `json:"mode,omitempty"`
}

// Limits bounds what one request may ask for. The zero value of a field
// means its DefaultLimits entry.
type Limits struct {
	MaxRuns  int   // seeded runs per mode
	MaxModes int   // routing modes per query
	MaxNodes int   // job size cap (also capped by the topology's nodes)
	MaxBody  int64 // request body bytes
}

// DefaultLimits returns the daemon defaults.
func DefaultLimits() Limits {
	return Limits{MaxRuns: 16, MaxModes: 8, MaxNodes: 1 << 14, MaxBody: 1 << 16}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxRuns <= 0 {
		l.MaxRuns = d.MaxRuns
	}
	if l.MaxModes <= 0 {
		l.MaxModes = d.MaxModes
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = d.MaxNodes
	}
	if l.MaxBody <= 0 {
		l.MaxBody = d.MaxBody
	}
	return l
}

// Query is a validated, normalized request: defaults applied, names
// resolved, bounds checked. Everything that influences simulation output
// is in here; Tenant rides along for admission only.
type Query struct {
	Topology string
	App      apps.App
	Nodes    int
	Modes    []routing.Mode
	Runs     int
	Seed     int64
	// BGUtil/BGMode describe the background: BGUtil 0 means isolated.
	// BGModeSet distinguishes an explicit uniform mode from the default
	// mixed environment.
	BGUtil    float64
	BGMode    routing.Mode
	BGModeSet bool
	Tenant    string
}

// Key canonically identifies the simulation a query requests — topology,
// app, size, modes, seeds, background — and deliberately excludes the
// tenant: two tenants asking the same question share one answer. It is
// the coalescing key, and its topology prefix is the machine-pool key.
func (q Query) Key() string {
	modes := make([]string, len(q.Modes))
	for i, m := range q.Modes {
		modes[i] = m.String()
	}
	bg := "none"
	if q.BGUtil > 0 {
		if q.BGModeSet {
			bg = fmt.Sprintf("%.6g@%s", q.BGUtil, q.BGMode)
		} else {
			bg = fmt.Sprintf("%.6g@default", q.BGUtil)
		}
	}
	return fmt.Sprintf("%s|%s|n%d|%s|r%d|s%d|bg:%s",
		q.Topology, q.App.Name(), q.Nodes, strings.Join(modes, ","), q.Runs, q.Seed, bg)
}

// DecodeRequest parses and validates one request body into a Query.
// Every failure is a client error (HTTP 400): malformed JSON, unknown
// fields, out-of-range sizes, negative seeds. It never panics and never
// allocates proportionally to hostile size fields — only to the body
// itself, which is capped by lim.MaxBody.
func DecodeRequest(data []byte, lim Limits) (Query, error) {
	lim = lim.withDefaults()
	if int64(len(data)) > lim.MaxBody {
		return Query{}, fmt.Errorf("request body %d bytes exceeds limit %d", len(data), lim.MaxBody)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Query{}, fmt.Errorf("malformed request: %w", err)
	}
	if dec.More() {
		return Query{}, fmt.Errorf("malformed request: trailing data after JSON object")
	}
	return req.normalize(lim)
}

// normalize applies defaults and bounds-checks every field.
func (req Request) normalize(lim Limits) (Query, error) {
	q := Query{}

	name := req.Topology
	if name == "" {
		name = "theta-mini"
	}
	cfg, err := topology.ByName(name)
	if err != nil {
		return Query{}, err
	}
	q.Topology = name

	app, err := apps.ByName(req.App)
	if err != nil {
		return Query{}, err
	}
	q.App = app

	maxNodes := cfg.ActiveNodes
	if lim.MaxNodes < maxNodes {
		maxNodes = lim.MaxNodes
	}
	if req.Nodes < 1 || req.Nodes > maxNodes {
		return Query{}, fmt.Errorf("nodes %d out of range 1..%d for topology %q",
			req.Nodes, maxNodes, name)
	}
	q.Nodes = req.Nodes

	modeNames := req.Modes
	if len(modeNames) == 0 {
		modeNames = []string{"AD0", "AD1", "AD2", "AD3"}
	}
	if len(modeNames) > lim.MaxModes {
		return Query{}, fmt.Errorf("%d modes exceeds limit %d", len(modeNames), lim.MaxModes)
	}
	q.Modes = make([]routing.Mode, len(modeNames))
	for i, s := range modeNames {
		m, err := routing.ParseMode(s)
		if err != nil {
			return Query{}, err
		}
		for _, prev := range q.Modes[:i] {
			if prev == m {
				return Query{}, fmt.Errorf("duplicate mode %q", m)
			}
		}
		q.Modes[i] = m
	}

	q.Runs = req.Runs
	if q.Runs == 0 {
		q.Runs = 4
	}
	if q.Runs < 1 || q.Runs > lim.MaxRuns {
		return Query{}, fmt.Errorf("runs %d out of range 1..%d", req.Runs, lim.MaxRuns)
	}

	q.Seed = 1
	if req.Seed != nil {
		if *req.Seed < 0 {
			return Query{}, fmt.Errorf("seed %d must be non-negative", *req.Seed)
		}
		q.Seed = *req.Seed
	}

	q.BGUtil = 0.75 // the paper's production default
	if req.Background != nil {
		u := req.Background.Utilization
		if u < 0 || u > 1 {
			return Query{}, fmt.Errorf("background utilization %g out of range 0..1", u)
		}
		q.BGUtil = u
		if req.Background.Mode != "" {
			m, err := routing.ParseMode(req.Background.Mode)
			if err != nil {
				return Query{}, err
			}
			q.BGMode = m
			q.BGModeSet = true
		}
	}

	q.Tenant = req.Tenant
	if q.Tenant == "" {
		q.Tenant = "default"
	}
	if len(q.Tenant) > 64 {
		return Query{}, fmt.Errorf("tenant name exceeds 64 bytes")
	}
	return q, nil
}
