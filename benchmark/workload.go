package main

import (
	"fmt"
	"math/rand"
	"time"

	opt "github.com/optlab/opt"
)

// pageSize is the store page size of every workload.
const pageSize = 4096

// workload is one fixed set of inputs. The numbers were tuned on the seed
// commit so one op takes 0.1–0.2 s on the 2-core host (≥ 100 ops in a
// 20 s run); README.md records why each exists and the work shares that
// were measured.
type workload struct {
	name string
	// dataset names the gen.Datasets entry whose |E|/|V| density the R-MAT
	// graph reproduces; vertices is its size.
	dataset  string
	vertices int
	// codecs lists the stores built from the one edge list. Library ops and
	// layer probes use the first; the serve schedule draws a store per job.
	codecs []string
	// serve selects the optd path (three child daemons, HTTP clients) in
	// place of in-process library calls.
	serve bool
	// lib are the options of the library op and of the engine probes.
	lib opt.Options
}

var sparseLatency = opt.DeviceLatency{PerRead: 100 * time.Microsecond, PerPage: 10 * time.Microsecond}

var workloads = []workload{
	{
		name: "dense-cpu", dataset: "twitter", vertices: 12000, codecs: []string{opt.CodecRaw},
		lib: opt.Options{Algorithm: opt.OPT, Threads: 2, MemoryFraction: 0.15},
	},
	{
		name: "sparse-io", dataset: "lj", vertices: 16000, codecs: []string{opt.CodecRaw},
		lib: opt.Options{Algorithm: opt.OPT, Threads: 2, MemoryFraction: 0.08, Latency: sparseLatency},
	},
	{
		name: "sparse-dv", dataset: "lj", vertices: 16000, codecs: []string{opt.CodecDeltaVarint},
		lib: opt.Options{Algorithm: opt.OPT, Threads: 2, MemoryFraction: 0.08, Latency: sparseLatency},
	},
	{
		name: "serve-mix", dataset: "lj", vertices: 4000, codecs: []string{opt.CodecRaw, opt.CodecDeltaVarint}, serve: true,
		lib: opt.Options{Algorithm: opt.OPT, Threads: 1, MemoryFraction: jobMemoryFraction},
	},
}

// clients is the number of closed-loop clients driving the workload's ops.
func (w workload) clients() int {
	if w.serve {
		return serveClients
	}
	return 1
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Serve schedule. Every block of ten ops holds six cache-miss local jobs,
// two exact repeats of an earlier miss of the same client (result-cache
// hits) and two distributed jobs, in an order drawn from the seed.
type opKind int

const (
	opMiss opKind = iota
	opHit
	opDist
)

func (k opKind) String() string { return [...]string{"miss", "hit", "dist"}[k] }

// jobMemoryFraction is the buffer share of a local job. Each miss job
// perturbs it by a multiple of fractionStep: the spec digest differs, so
// the result cache is bypassed, while the resolved page budget — and with
// it the work — stays the same for every miss job.
const (
	jobMemoryFraction = 0.5
	fractionStep      = 1e-9
)

// serveOp is one scheduled request.
type serveOp struct {
	Kind  opKind
	Store int // index into the workload's codecs
	// Unique numbers the miss and dist jobs of a run; a hit carries the
	// Unique of the miss it repeats.
	Unique int
}

// scheduler deals the ops of one closed-loop client. The sequence is a
// function of (seed, client, clients, stores) alone.
type scheduler struct {
	rng     *rand.Rand
	client  int
	clients int
	stores  int
	issued  int       // miss/dist jobs dealt so far
	misses  []serveOp // this client's earlier miss jobs, repeatable as hits
	block   []opKind
}

func newScheduler(seed int64, client, clients, stores int) *scheduler {
	return &scheduler{
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(client))),
		client: client, clients: clients, stores: stores,
	}
}

func (s *scheduler) unique() int {
	u := s.issued*s.clients + s.client
	s.issued++
	return u
}

// next deals the following op. A hit falls back to a miss while the client
// has nothing to repeat (only before its first miss).
func (s *scheduler) next() serveOp {
	if len(s.block) == 0 {
		s.block = []opKind{opMiss, opMiss, opMiss, opMiss, opMiss, opMiss, opHit, opHit, opDist, opDist}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	if kind == opHit && len(s.misses) == 0 {
		kind = opMiss
	}
	switch kind {
	case opHit:
		op := s.misses[s.rng.Intn(len(s.misses))]
		op.Kind = opHit
		return op
	case opDist:
		return serveOp{Kind: opDist, Store: s.rng.Intn(s.stores), Unique: s.unique()}
	default:
		op := serveOp{Kind: opMiss, Store: s.rng.Intn(s.stores), Unique: s.unique()}
		s.misses = append(s.misses, op)
		return op
	}
}
