package lint

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// lockorder (DESIGN.md §16): the module-wide lock-order graph. Nodes are
// abstract lock identities (lockfacts.go); a directed edge A→B means some
// function may acquire B while A is definitely held, with a concrete
// witness (the acquiring site, the site that took A, and the call chain
// when B is taken through callees). Every cycle in this graph is a
// potential ABBA deadlock; every cycle is reported once, with a witness
// for each of its edges, so the report *is* the repro recipe. The graph
// and its cycles are computed once, single-threaded, in
// buildLockGraph — the analyzer merely replays the findings owned by its
// package, which keeps output byte-identical at any -parallel width.

// lockWitness is the representative evidence for one graph edge.
type lockWitness struct {
	Owner string // key of the function whose body creates the edge
	Edge  LockEdge
}

// describe renders the witness as one clause of a cycle message.
func (w lockWitness) describe() string {
	return fmt.Sprintf("%s acquires %s while holding %s (acquired at %s)",
		w.Owner, w.Edge.Acq.describe(), w.Edge.Held, w.Edge.HeldSite)
}

// lockCycle is one reportable cycle, precomputed with its anchor position
// and owning function (whose package reports it).
type lockCycle struct {
	owner string
	site  LockSite
	msg   string
}

// buildLockGraph unions every summary's AcqEdges into the module lock
// graph and enumerates its cycles. Called from BuildProgramCached after
// summaries exist — the facts live in the (cache-serialized) summaries,
// so warm-cache runs rebuild the graph without rerunning the fixpoint.
func (p *Program) buildLockGraph() {
	p.lockAdj = map[string][]string{}
	p.lockWit = map[[2]string]lockWitness{}
	keys := make([]string, 0, len(p.Summaries))
	for k := range p.Summaries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	nodeSet := map[string]bool{}
	for _, key := range keys {
		s := p.Summaries[key]
		if s == nil {
			continue
		}
		// Every acquired lock is a node even without order edges, so the
		// -graph dump doubles as the module's lock inventory.
		for _, a := range s.Acquires {
			nodeSet[a.Lock] = true
		}
		for _, e := range s.AcqEdges {
			nodeSet[e.Held] = true
			nodeSet[e.Acq.Lock] = true
			id := [2]string{e.Held, e.Acq.Lock}
			if _, dup := p.lockWit[id]; dup {
				continue // first witness in sorted key order wins
			}
			p.lockWit[id] = lockWitness{Owner: key, Edge: e}
			p.lockAdj[e.Held] = append(p.lockAdj[e.Held], e.Acq.Lock)
		}
	}
	p.lockNodes = make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		p.lockNodes = append(p.lockNodes, n)
	}
	sort.Strings(p.lockNodes)
	for _, adj := range p.lockAdj {
		sort.Strings(adj)
	}
	p.lockCycles = p.findLockCycles()
}

// lockSCCs returns the lock graph's strongly connected components; sorted
// nodes and adjacency keep the order deterministic.
func (p *Program) lockSCCs() [][]string {
	return tarjanSCC(p.lockNodes, func(v string) []string { return p.lockAdj[v] })
}

// findLockCycles enumerates the graph's elementary cycles: the SCCs over
// the lock nodes, then for every in-component edge u→v the shortest
// v⇝u return path, canonicalized by rotation and deduplicated — each
// distinct node sequence is reported exactly once.
func (p *Program) findLockCycles() []lockCycle {
	sccs := p.lockSCCs()
	var cycles []lockCycle
	seen := map[string]bool{}
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue // no self-edges exist (same-lock reacquisition is a LockReport)
		}
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		for _, u := range scc {
			for _, v := range p.lockAdj[u] {
				if !in[v] {
					continue
				}
				back := shortestLockPath(v, u, in, p.lockAdj)
				if back == nil {
					continue
				}
				cyc := append([]string{u}, back...) // u, v, …, u
				cyc = cyc[:len(cyc)-1]
				rot := rotateToMin(cyc)
				sig := strings.Join(rot, "\x00")
				if seen[sig] {
					continue
				}
				seen[sig] = true
				cycles = append(cycles, p.renderCycle(rot))
			}
		}
	}
	sort.Slice(cycles, func(i, j int) bool {
		a, b := cycles[i], cycles[j]
		if c := a.site.compare(b.site); c != 0 {
			return c < 0
		}
		return a.msg < b.msg
	})
	return cycles
}

// renderCycle formats one canonical cycle into a finding: the lock ring
// followed by every edge's witness. The anchor (position and owning
// function) is the witness with the smallest acquisition site, so the
// finding lands on real code in exactly one package.
func (p *Program) renderCycle(rot []string) lockCycle {
	ring := strings.Join(append(append([]string{}, rot...), rot[0]), " → ")
	var clauses []string
	var anchor *lockWitness
	for i := range rot {
		w, ok := p.lockWit[[2]string{rot[i], rot[(i+1)%len(rot)]}]
		if !ok {
			continue
		}
		clauses = append(clauses, w.describe())
		if anchor == nil || w.Edge.Acq.Site.compare(anchor.Edge.Acq.Site) < 0 {
			cp := w
			anchor = &cp
		}
	}
	c := lockCycle{msg: fmt.Sprintf("lock-order cycle %s: %s", ring, strings.Join(clauses, "; "))}
	if anchor != nil {
		c.owner = anchor.Owner
		c.site = anchor.Edge.Acq.Site
	}
	return c
}

// shortestLockPath BFSes from src to dst inside the node set `in`,
// returning the node sequence src..dst (nil if unreachable). Sorted
// adjacency makes ties deterministic.
func shortestLockPath(src, dst string, in map[string]bool, adj map[string][]string) []string {
	if src == dst {
		return []string{src}
	}
	parent := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !in[v] {
				continue
			}
			if _, seen := parent[v]; seen {
				continue
			}
			parent[v] = u
			if v == dst {
				var path []string
				for n := dst; ; n = parent[n] {
					path = append(path, n)
					if n == src {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// rotateToMin rotates the cycle so its lexicographically smallest node
// comes first — the canonical spelling used for deduplication.
func rotateToMin(cyc []string) []string {
	best := 0
	for i := 1; i < len(cyc); i++ {
		if cyc[i] < cyc[best] {
			best = i
		}
	}
	out := make([]string, 0, len(cyc))
	out = append(out, cyc[best:]...)
	out = append(out, cyc[:best]...)
	return out
}

// WriteLockGraphDOT renders the lock-order graph as GraphViz DOT: one
// node per abstract lock, one labeled edge per acquisition-order fact,
// cycle edges highlighted. This is the `optlint -graph` output DESIGN.md
// §16 renders the sanctioned lock hierarchy from.
func (p *Program) WriteLockGraphDOT(w io.Writer) error {
	cyclic := map[[2]string]bool{}
	for _, scc := range p.lockSCCs() {
		if len(scc) < 2 {
			continue
		}
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		for _, u := range scc {
			for _, v := range p.lockAdj[u] {
				if in[v] {
					cyclic[[2]string{u, v}] = true
				}
			}
		}
	}
	if _, err := fmt.Fprintln(w, "digraph lockorder {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for _, n := range p.lockNodes {
		fmt.Fprintf(w, "  %q;\n", n)
	}
	for _, u := range p.lockNodes {
		for _, v := range p.lockAdj[u] {
			wit := p.lockWit[[2]string{u, v}]
			attr := fmt.Sprintf("label=%q", wit.Owner)
			if cyclic[[2]string{u, v}] {
				attr += ", color=red, penwidth=2"
			}
			if _, err := fmt.Fprintf(w, "  %q -> %q [%s];\n", u, v, attr); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// LockGraphSize reports the graph's shape (nodes, edges, cycles) for
// driver logging.
func (p *Program) LockGraphSize() (nodes, edges, cycles int) {
	return len(p.lockNodes), len(p.lockWit), len(p.lockCycles)
}

// --- analyzer ---------------------------------------------------------------

// NewLockorder returns the lockorder analyzer: module-wide ABBA deadlock
// cycles with two-path witnesses, plus the outright conflicts recorded in
// summaries (Lock of an already-held lock, RLock→Lock upgrade).
func NewLockorder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "detect lock-order cycles (ABBA deadlocks) across the whole module, plus same-lock reacquisition and RLock→Lock upgrades",
		Run: func(pass *Pass) {
			if pass.Prog == nil {
				return
			}
			keys := make([]string, 0, len(pass.Prog.ByKey))
			for k, fi := range pass.Prog.ByKey {
				if fi.Pkg == pass.Pkg {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			owned := map[string]bool{}
			for _, k := range keys {
				owned[k] = true
				s := pass.Prog.Summaries[k]
				if s == nil {
					continue
				}
				for _, r := range s.LockReports {
					pass.ReportAt(r.Site.position(), "%s", r.Msg)
				}
			}
			for _, c := range pass.Prog.lockCycles {
				if owned[c.owner] {
					pass.ReportAt(c.site.position(), "%s", c.msg)
				}
			}
		},
	}
}
