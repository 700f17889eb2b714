package stsparql

import (
	"context"
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/strdf"
)

// The vectorized executor. Solutions are rows of dictionary ids over a
// compact variable-slot map instead of map[string]rdf.Term clones; each
// triple pattern is answered with one batched index probe against a store
// snapshot plus a hash join on the already-bound variables, instead of one
// locked index probe per (binding × pattern) pair; and terms are decoded
// back to rdf.Term only at projection, FILTER and BIND boundaries.
//
// Execution is driven by an explicit physical plan (plan.go): the WHERE
// group compiles once per evaluation into an operator list whose join
// order comes from the snapshot's statistics, and the expensive operators
// — index probes, hash-join probes, filters — run MORSEL-PARALLEL: the
// input row range splits into fixed-size batches pulled by up to
// Engine.MaxParallelism workers from the process-wide slot-budget pool
// (internal/parallel). Each morsel emits into its own output table and
// the outputs are concatenated in morsel order, so the result is
// bit-identical to a serial run at every parallelism level. The
// evaluation context is checked between operators, per morsel, and
// periodically inside long loops, so endpoint timeouts stop work instead
// of orphaning it. See docs/performance.md for the design write-up.

// extraBit marks per-query ids for terms absent from the store dictionary
// (BIND / projection expression results). Extra ids are interned per
// query, so id equality remains term equality across both id families.
const extraBit = uint64(1) << 63

// Morsel tunables. Package variables (not constants) so the equivalence
// tests can force tiny morsels onto small fixtures; production code never
// mutates them.
var (
	// morselMinJoinRows is the smallest probe/materialisation input worth
	// fanning out: hash probes are cheap per row.
	morselMinJoinRows = 4096
	// morselMinFilterRows gates filters and per-row index probes, whose
	// per-row cost (geometry predicates, expression evaluation, index
	// lookups) is far higher.
	morselMinFilterRows = 512
	// morselsPerWorker is the work-stealing granularity: more morsels
	// than workers, so a skewed batch self-balances.
	morselsPerWorker = 4
)

// vtable is the columnar solution table: n rows of `width` slot values,
// flattened row-major. Slot value 0 means "unbound" (dictionary ids start
// at 1). origin[i] records which seed row produced row i; every operator
// emits rows in nondecreasing origin order, which lets UNION and OPTIONAL
// merges reproduce the reference binding-at-a-time output order exactly.
type vtable struct {
	width  int
	rows   []uint64
	origin []int32
}

func (t *vtable) n() int             { return len(t.origin) }
func (t *vtable) row(i int) []uint64 { return t.rows[i*t.width : (i+1)*t.width] }

// get reads slot s of row i; slots beyond the table's width are unbound.
func (t *vtable) get(i, s int) uint64 {
	if s < 0 || s >= t.width {
		return 0
	}
	return t.rows[i*t.width+s]
}

// append copies src (a row of srcWidth values) into the table, padding new
// slots with unbound.
func (t *vtable) append(src []uint64, origin int32) []uint64 {
	base := len(t.rows)
	t.rows = append(t.rows, src...)
	for k := len(src); k < t.width; k++ {
		t.rows = append(t.rows, 0)
	}
	t.origin = append(t.origin, origin)
	return t.rows[base : base+t.width]
}

// reseed returns a view of the same rows with identity origins, for
// sub-group evaluation whose output is merged back per input row.
func (t *vtable) reseed() *vtable {
	org := make([]int32, t.n())
	for i := range org {
		org[i] = int32(i)
	}
	return &vtable{width: t.width, rows: t.rows, origin: org}
}

// vexec evaluates one statement in dictionary-id space over an immutable
// store snapshot, so no store lock is taken per row or per pattern.
type vexec struct {
	e    *Engine
	ctx  context.Context
	snap *strabon.Snapshot
	vars []string
	slot map[string]int
	// extra holds computed terms outside the store dictionary; extraID
	// interns them. Mutated only by the serial operators (BIND,
	// projection); morsel workers never intern.
	extra   []rdf.Term
	extraID map[rdf.Term]uint64
	buf     []int32 // scratch for Snapshot.MatchRows on serial paths
	scratch Binding // scratch for serial row-wise expression evaluation

	// workers bounds this query's morsel parallelism; plan records the
	// compiled operator DAG with its estimates and measured cardinalities
	// (what EXPLAIN renders).
	workers int
	plan    *groupPlan
	planner *planner
}

func newVexec(ctx context.Context, e *Engine) *vexec {
	// extraID and scratch are allocated on first use.
	snap := e.store.Snapshot()
	return &vexec{
		e:       e,
		ctx:     ctx,
		snap:    snap,
		slot:    map[string]int{},
		workers: e.queryWorkers(),
		planner: &planner{e: e, snap: snap},
	}
}

// seed is the evaluation starting point: one empty solution.
func (v *vexec) seed() *vtable { return &vtable{origin: []int32{0}} }

func (v *vexec) slotOf(name string) int {
	if s, ok := v.slot[name]; ok {
		return s
	}
	return -1
}

func (v *vexec) addSlot(name string) int {
	if s, ok := v.slot[name]; ok {
		return s
	}
	s := len(v.vars)
	v.vars = append(v.vars, name)
	v.slot[name] = s
	return s
}

// term decodes a dictionary or extra id back to its term.
func (v *vexec) term(id uint64) (rdf.Term, bool) {
	if id == 0 {
		return rdf.Term{}, false
	}
	if id&extraBit != 0 {
		return v.extra[id&^extraBit], true
	}
	return v.snap.DecodeTerm(id)
}

// idOf interns a computed term: the dictionary id when the store already
// knows the term, else a per-query extra id. Serial-only (see vexec.extra).
func (v *vexec) idOf(t rdf.Term) uint64 {
	if id, ok := v.snap.Lookup(t); ok {
		return id
	}
	if id, ok := v.extraID[t]; ok {
		return id
	}
	if v.extraID == nil {
		v.extraID = map[rdf.Term]uint64{}
	}
	id := extraBit | uint64(len(v.extra))
	v.extra = append(v.extra, t)
	v.extraID[t] = id
	return id
}

// evalRoot compiles the WHERE group into a physical plan against the
// snapshot statistics, then executes it over the singleton seed row.
func (v *vexec) evalRoot(g *Group) (*vtable, error) {
	v.plan = v.planner.planGroup(g, map[string]bool{}, 1)
	return v.execGroup(v.plan, v.seed())
}

// execGroup runs one compiled group: patterns (scan/join), then BIND,
// FILTER, UNION and OPTIONAL operators, recording measured cardinalities
// on the plan. Once a pattern produces zero rows the remaining patterns
// are skipped (they cannot add rows), matching the reference pipeline.
func (v *vexec) execGroup(p *groupPlan, in *vtable) (*vtable, error) {
	cur := in
	skipPatterns := false
	for _, n := range p.nodes {
		if err := v.ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		switch n.kind {
		case nodeScan, nodeJoin:
			if skipPatterns {
				continue
			}
			cur, err = v.evalPattern(n, cur, p.hints)
			if err == nil && cur.n() == 0 {
				skipPatterns = true
			}
		case nodeBind:
			cur = v.evalBind(n.bind, cur)
		case nodeFilter:
			cur, err = v.evalFilterTable(n, cur)
		case nodeUnion:
			cur, err = v.evalUnion(n, cur)
		case nodeOptional:
			cur, err = v.evalOptional(n, cur)
		}
		if err != nil {
			return nil, err
		}
		n.ran = true
		n.actual += cur.n()
	}
	return cur, nil
}

// runMorsels executes build over the input range [0, n) in morsel
// batches on the shared pool, concatenating the per-morsel output tables
// in morsel order — bit-identical to one serial build(0, n) call.
// Inputs below minRows (or a worker bound of 1) run serial. Returns the
// assembled table, the morsel count, and the first error in morsel
// order (context cancellation surfaces as the context's error).
func (v *vexec) runMorsels(n, minRows, width int, build func(lo, hi int, out *vtable) error) (*vtable, int, error) {
	workers := v.workers
	if workers <= 1 || n < minRows {
		out := &vtable{width: width}
		err := build(0, n, out)
		if err == nil {
			err = v.ctx.Err()
		}
		return out, 1, err
	}
	size := (n + workers*morselsPerWorker - 1) / (workers * morselsPerWorker)
	if size < 64 {
		size = 64
	}
	nm := (n + size - 1) / size
	parts := make([]*vtable, nm)
	errs := make([]error, nm)
	parallel.Morsels(n, size, workers, func(m, lo, hi int) {
		if err := v.ctx.Err(); err != nil {
			errs[m] = err
			return
		}
		part := &vtable{width: width}
		errs[m] = build(lo, hi, part)
		parts[m] = part
	})
	for _, err := range errs {
		if err != nil {
			return nil, nm, err
		}
	}
	if err := v.ctx.Err(); err != nil {
		return nil, nm, err
	}
	total := 0
	for _, p := range parts {
		total += p.n()
	}
	out := &vtable{width: width, rows: make([]uint64, 0, total*width), origin: make([]int32, 0, total)}
	for _, p := range parts {
		out.rows = append(out.rows, p.rows...)
		out.origin = append(out.origin, p.origin...)
	}
	return out, nm, nil
}

// Variable-position classification for one pattern against one table.
const (
	posConst = iota // concrete term
	posJoin         // variable bound (non-zero) in every row: a join key
	posNew          // variable with no slot, or unbound in every row
	posMixed        // bound in some rows only (post-OPTIONAL/UNION shapes)
)

// evalPattern answers one triple pattern for all current solutions: one
// batched candidate probe from the snapshot index, then a hash join on the
// bound variables, morsel-parallel over the probe side. The rare
// mixed-boundness case falls back to a per-row probe (still id-space,
// lock-free, and morsel-parallel over rows).
func (v *vexec) evalPattern(n *planNode, in *vtable, hints map[string]geo.Envelope) (*vtable, error) {
	pat := n.pat
	if in.n() == 0 {
		return in, nil
	}
	pos := [3]PatTerm{pat.S, pat.P, pat.O}
	var constPat strabon.TriplePattern
	constDst := [3]*uint64{&constPat.S, &constPat.P, &constPat.O}
	for i, pt := range pos {
		if pt.IsVar() {
			continue
		}
		id, ok := v.snap.Lookup(pt.Term)
		if !ok {
			// Unknown constant: the pattern matches nothing.
			return &vtable{width: in.width}, nil
		}
		*constDst[i] = id
	}
	kind := [3]int{}
	slotAt := [3]int{-1, -1, -1}
	mixed := false
	for i, pt := range pos {
		if !pt.IsVar() {
			kind[i] = posConst
			continue
		}
		s := v.slotOf(pt.Var)
		if s < 0 || s >= in.width {
			kind[i] = posNew
			continue
		}
		slotAt[i] = s
		someBound, someUnbound := false, false
		for r := 0; r < in.n() && !(someBound && someUnbound); r++ {
			if in.get(r, s) != 0 {
				someBound = true
			} else {
				someUnbound = true
			}
		}
		switch {
		case someBound && someUnbound:
			kind[i] = posMixed
			mixed = true
		case someBound:
			kind[i] = posJoin
		default:
			kind[i] = posNew
		}
	}
	// Spatial pushdown set: candidate object ids inside the filter hint's
	// envelope. It constrains only rows where the object variable is still
	// unbound, matching the reference executor.
	var spatialSet map[uint64]bool
	if ov := objVar(pat); ov != "" && (kind[2] == posNew || kind[2] == posMixed) {
		if env, ok := hints[ov]; ok {
			ids := v.snap.SpatialCandidates(env)
			spatialSet = make(map[uint64]bool, len(ids))
			for _, id := range ids {
				spatialSet[id] = true
			}
		}
	}
	// Ensure slots for the new variables; the output covers every slot
	// allocated so far (holes stay unbound). Slot allocation happens
	// before any morsel fans out, so workers only read the slot map.
	for i, pt := range pos {
		if kind[i] == posNew && slotAt[i] < 0 {
			slotAt[i] = v.addSlot(pt.Var)
		}
	}
	width := len(v.vars)
	if width < in.width {
		width = in.width
	}
	var joinPos []int
	for i := 0; i < 3; i++ {
		if kind[i] == posJoin {
			joinPos = append(joinPos, i)
		}
	}
	if mixed {
		return v.evalPatternPerRow(n, pat, constPat, kind, slotAt, in, width, spatialSet)
	}
	// When the solution side is much smaller than the candidate side of a
	// join, probing the index once per row (with the row's bound ids
	// narrowing the probe) beats building a hash table over the
	// candidates — the reference evaluator's strategy, minus its per-row
	// lock and term decoding.
	if len(joinPos) > 0 && in.n()*8 < v.snap.Cardinality(constPat) {
		return v.evalPatternPerRow(n, pat, constPat, kind, slotAt, in, width, spatialSet)
	}
	col := func(i int, c int32) uint64 {
		return v.snap.ColID(i, c)
	}
	// One batched probe for the pattern's constants.
	cands := v.snap.MatchRows(constPat, &v.buf)
	// Pre-filter candidates once: spatial pruning plus consistency of a
	// variable occurring in several new positions (e.g. ?x ?p ?x).
	valid := cands
	needFilter := spatialSet != nil
	var dupNew [][2]int
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if kind[i] == posNew && kind[j] == posNew && slotAt[i] == slotAt[j] {
				dupNew = append(dupNew, [2]int{i, j})
				needFilter = true
			}
		}
	}
	if needFilter {
		filtered := make([]int32, 0, len(cands))
	candLoop:
		for _, c := range cands {
			if spatialSet != nil && !spatialSet[v.snap.ColID(2, c)] {
				continue
			}
			for _, d := range dupNew {
				if col(d[0], c) != col(d[1], c) {
					continue candLoop
				}
			}
			filtered = append(filtered, c)
		}
		valid = filtered
	}
	if len(valid) == 0 {
		return &vtable{width: width}, nil
	}
	var newAssign [][2]int // (position, slot) pairs to fill per emitted row
	for i := 0; i < 3; i++ {
		if kind[i] == posNew {
			newAssign = append(newAssign, [2]int{i, slotAt[i]})
		}
	}
	emitTo := func(out *vtable, r int, c int32) {
		row := out.append(in.row(r), in.origin[r])
		for _, a := range newAssign {
			row[a[1]] = col(a[0], c)
		}
	}
	// Small joins run faster by scanning than by building a hash table
	// (and are too small to be worth a goroutine handoff).
	if len(joinPos) > 0 && (len(valid) <= 8 || in.n()*len(valid) <= 4096) {
		out := &vtable{width: width, rows: make([]uint64, 0, in.n()*width), origin: make([]int32, 0, in.n())}
		for r := 0; r < in.n(); r++ {
		scanLoop:
			for _, c := range valid {
				for _, i := range joinPos {
					if col(i, c) != in.get(r, slotAt[i]) {
						continue scanLoop
					}
				}
				emitTo(out, r, c)
			}
		}
		return out, nil
	}
	var (
		out *vtable
		nm  int
		err error
	)
	switch len(joinPos) {
	case 0:
		// No shared variables: cross product. For the ubiquitous
		// single-input-row shape (the first pattern of a group) this is
		// the candidate materialisation, morsel-parallel over candidates;
		// otherwise morsels split the input rows.
		if in.n() == 1 {
			out, nm, err = v.runMorsels(len(valid), morselMinJoinRows, width, func(lo, hi int, part *vtable) error {
				part.rows = make([]uint64, 0, (hi-lo)*width)
				part.origin = make([]int32, 0, hi-lo)
				for k := lo; k < hi; k++ {
					if (k-lo)&8191 == 8191 {
						if err := v.ctx.Err(); err != nil {
							return err
						}
					}
					emitTo(part, 0, valid[k])
				}
				return nil
			})
		} else {
			out, nm, err = v.runMorsels(in.n(), morselMinJoinRows, width, func(lo, hi int, part *vtable) error {
				emitted := 0
				for r := lo; r < hi; r++ {
					for _, c := range valid {
						if emitted&8191 == 8191 {
							if err := v.ctx.Err(); err != nil {
								return err
							}
						}
						emitTo(part, r, c)
						emitted++
					}
				}
				return nil
			})
		}
	case 1:
		jp := joinPos[0]
		js := slotAt[jp]
		h := groupByKey(valid, func(c int32) uint64 { return col(jp, c) })
		out, nm, err = v.runMorsels(in.n(), morselMinJoinRows, width, func(lo, hi int, part *vtable) error {
			part.rows = make([]uint64, 0, (hi-lo)*width)
			part.origin = make([]int32, 0, hi-lo)
			for r := lo; r < hi; r++ {
				if (r-lo)&8191 == 8191 {
					if err := v.ctx.Err(); err != nil {
						return err
					}
				}
				for _, c := range h[in.get(r, js)] {
					emitTo(part, r, c)
				}
			}
			return nil
		})
	default:
		key3 := func(c int32) [3]uint64 {
			var k [3]uint64
			for _, i := range joinPos {
				k[i] = col(i, c)
			}
			return k
		}
		h := groupByKey(valid, key3)
		out, nm, err = v.runMorsels(in.n(), morselMinJoinRows, width, func(lo, hi int, part *vtable) error {
			part.rows = make([]uint64, 0, (hi-lo)*width)
			part.origin = make([]int32, 0, hi-lo)
			var key [3]uint64
			for r := lo; r < hi; r++ {
				if (r-lo)&8191 == 8191 {
					if err := v.ctx.Err(); err != nil {
						return err
					}
				}
				key = [3]uint64{}
				for _, i := range joinPos {
					key[i] = in.get(r, slotAt[i])
				}
				for _, c := range h[key] {
					emitTo(part, r, c)
				}
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	if nm > n.morsels {
		n.morsels = nm
	}
	return out, nil
}

// groupByKey buckets candidates by join key into slices carved out of one
// shared arena: a counting pass sizes each bucket, so no per-key slice
// ever reallocates. The result is read-only and safe for concurrent
// probe morsels.
func groupByKey[K comparable](cands []int32, key func(int32) K) map[K][]int32 {
	cnt := make(map[K]int32, len(cands))
	for _, c := range cands {
		cnt[key(c)]++
	}
	arena := make([]int32, len(cands))
	h := make(map[K][]int32, len(cnt))
	off := int32(0)
	for k, n := range cnt {
		h[k] = arena[off : off : off+n]
		off += n
	}
	for _, c := range cands {
		k := key(c)
		h[k] = append(h[k], c)
	}
	return h
}

// evalPatternPerRow handles patterns whose variables are bound in only
// some rows (and the adaptive few-rows-vs-many-candidates join): each row
// probes the index with its own bound ids, morsel-parallel over rows with
// a per-morsel probe buffer.
func (v *vexec) evalPatternPerRow(n *planNode, pat Pattern, constPat strabon.TriplePattern, kind [3]int, slotAt [3]int, in *vtable, width int, spatialSet map[uint64]bool) (*vtable, error) {
	pos := [3]PatTerm{pat.S, pat.P, pat.O}
	out, nm, err := v.runMorsels(in.n(), morselMinFilterRows, width, func(lo, hi int, part *vtable) error {
		var buf []int32
		part.rows = make([]uint64, 0, (hi-lo)*width)
		part.origin = make([]int32, 0, hi-lo)
		for r := lo; r < hi; r++ {
			if (r-lo)&1023 == 1023 {
				if err := v.ctx.Err(); err != nil {
					return err
				}
			}
			tp := constPat
			dst := [3]*uint64{&tp.S, &tp.P, &tp.O}
			for i := range pos {
				if slotAt[i] >= 0 {
					if id := in.get(r, slotAt[i]); id != 0 {
						// An extra (per-query) id can never appear in a stored
						// triple; the posting lookup correctly finds nothing.
						*dst[i] = id
					}
				}
			}
			cands := v.snap.MatchRows(tp, &buf)
		candLoop:
			for _, c := range cands {
				s, p, o := v.snap.Row(c)
				vals := [3]uint64{s, p, o}
				// Consistency across positions sharing a variable that this
				// row leaves unbound, and spatial pruning for unbound objects.
				if spatialSet != nil && kind[2] != posConst && in.get(r, slotAt[2]) == 0 && !spatialSet[o] {
					continue
				}
				for i := 0; i < 3; i++ {
					for j := i + 1; j < 3; j++ {
						if pos[i].IsVar() && pos[j].IsVar() && pos[i].Var == pos[j].Var && vals[i] != vals[j] {
							continue candLoop
						}
					}
				}
				row := part.append(in.row(r), in.origin[r])
				for i := range pos {
					if slotAt[i] >= 0 {
						row[slotAt[i]] = vals[i]
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if nm > n.morsels {
		n.morsels = nm
	}
	return out, nil
}

// evalBind appends/overwrites a slot with a computed term per row,
// decoding only the variables the expression references. Serial: BIND
// interns computed terms into the shared per-query extra dictionary.
func (v *vexec) evalBind(bc BindClause, in *vtable) *vtable {
	s := v.addSlot(bc.Var)
	refs := v.resolveRefs(exprVars(bc.Expr))
	out := &vtable{width: len(v.vars), rows: make([]uint64, 0, in.n()*len(v.vars)), origin: make([]int32, 0, in.n())}
	for r := 0; r < in.n(); r++ {
		row := out.append(in.row(r), in.origin[r])
		v.scratch = v.bindingInto(v.scratch, refs, in, r)
		if t, err := v.e.evalExpr(bc.Expr, v.scratch); err == nil {
			row[s] = v.idOf(t)
		}
	}
	return out
}

// evalFilterTable keeps rows passing the filter, morsel-parallel over
// rows. Spatial predicate and distance-comparison filters run entirely
// in id space against the snapshot's geometry cache; everything else
// decodes just the referenced variables per row into a morsel-local
// scratch binding (Engine.evalExpr is safe for concurrent evaluations).
func (v *vexec) evalFilterTable(n *planNode, in *vtable) (*vtable, error) {
	f := n.filt
	if in.n() == 0 {
		return in, nil
	}
	fast := v.compileFastFilter(f)
	// Resolved unconditionally BEFORE the fan-out: the closure below runs
	// on concurrent workers, and a compiled fast filter may decline
	// individual rows (handled=false), so the generic path must never
	// lazily initialise shared state from inside a morsel.
	refs := v.resolveRefs(exprVars(f))
	out, nm, err := v.runMorsels(in.n(), morselMinFilterRows, in.width, func(lo, hi int, part *vtable) error {
		var scratch Binding // morsel-local: never shared across workers
		part.rows = make([]uint64, 0, (hi-lo)*in.width)
		part.origin = make([]int32, 0, hi-lo)
		for r := lo; r < hi; r++ {
			if (r-lo)&1023 == 1023 {
				if err := v.ctx.Err(); err != nil {
					return err
				}
			}
			keep, handled := false, false
			if fast != nil {
				keep, handled = fast(in, r)
			}
			if !handled {
				scratch = v.bindingInto(scratch, refs, in, r)
				var err error
				keep, err = v.e.evalFilter(f, scratch)
				if err != nil {
					return err
				}
			}
			if keep {
				part.append(in.row(r), in.origin[r])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if nm > n.morsels {
		n.morsels = nm
	}
	return out, nil
}

// evalUnion runs every alternative batched over all current rows, then
// interleaves the results per input row (alternatives in syntactic order)
// to match the reference binding-at-a-time concatenation exactly.
func (v *vexec) evalUnion(n *planNode, in *vtable) (*vtable, error) {
	if in.n() == 0 {
		return in, nil
	}
	reseed := in.reseed()
	results := make([]*vtable, len(n.alts))
	width := in.width
	for i, alt := range n.alts {
		r, err := v.execGroup(alt, reseed)
		if err != nil {
			return nil, err
		}
		results[i] = r
		if r.width > width {
			width = r.width
		}
	}
	out := &vtable{width: width}
	cursors := make([]int, len(n.alts))
	for k := 0; k < in.n(); k++ {
		for i, res := range results {
			for cursors[i] < res.n() && res.origin[cursors[i]] == int32(k) {
				out.append(res.row(cursors[i]), in.origin[k])
				cursors[i]++
			}
		}
	}
	return out, nil
}

// evalOptional left-joins one optional group: rows with sub-matches are
// replaced by them, rows without survive unchanged.
func (v *vexec) evalOptional(n *planNode, in *vtable) (*vtable, error) {
	if in.n() == 0 {
		return in, nil
	}
	sub, err := v.execGroup(n.opt, in.reseed())
	if err != nil {
		return nil, err
	}
	width := in.width
	if sub.width > width {
		width = sub.width
	}
	out := &vtable{width: width}
	cursor := 0
	for k := 0; k < in.n(); k++ {
		matched := false
		for cursor < sub.n() && sub.origin[cursor] == int32(k) {
			out.append(sub.row(cursor), in.origin[k])
			cursor++
			matched = true
		}
		if !matched {
			out.append(in.row(k), in.origin[k])
		}
	}
	return out, nil
}

// refSlot pairs a referenced variable with its slot (-1: never bound).
type refSlot struct {
	name string
	slot int
}

func (v *vexec) resolveRefs(names []string) []refSlot {
	out := make([]refSlot, 0, len(names))
	for _, n := range names {
		out = append(out, refSlot{name: n, slot: v.slotOf(n)})
	}
	return out
}

// bindingInto materialises just the referenced variables of one row into
// b (allocated when nil, cleared otherwise) and returns it. Callers own
// b — serial paths reuse v.scratch, morsel workers keep their own.
func (v *vexec) bindingInto(b Binding, refs []refSlot, in *vtable, r int) Binding {
	if b == nil {
		b = Binding{}
	}
	for k := range b {
		delete(b, k)
	}
	for _, rs := range refs {
		id := in.get(r, rs.slot)
		if id == 0 {
			continue
		}
		if t, ok := v.term(id); ok {
			b[rs.name] = t
		}
	}
	return b
}

// exprVars collects the distinct variable names referenced by an
// expression.
func exprVars(ex Expression) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(Expression)
	walk = func(ex Expression) {
		switch t := ex.(type) {
		case *EVar:
			if !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		case *EUnary:
			walk(t.X)
		case *EBinary:
			walk(t.Left)
			walk(t.Right)
		case *ECall:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	walk(ex)
	return out
}

// --- id-space fast paths for spatial filters -------------------------------

// geomSrc yields a geometry per row: either a constant (parsed once at
// compile time) or a variable slot resolved through the snapshot's
// geometry cache.
type geomSrc struct {
	slot  int // -1 when constant
	c     strdf.SpatialValue
	isVar bool
}

// fetch resolves the geometry for one row. falseNow reports that the
// reference evaluator would error here (unbound variable, unparsable term),
// which a FILTER treats as false.
func (v *vexec) fetchGeom(src geomSrc, in *vtable, r int) (strdf.SpatialValue, bool) {
	if !src.isVar {
		return src.c, true
	}
	id := in.get(r, src.slot)
	if id == 0 {
		return strdf.SpatialValue{}, false
	}
	if g, ok := v.snap.Geometry(id); ok {
		return g, true
	}
	// Computed terms and literals outside the object-geometry cache take
	// the engine's parse cache.
	t, ok := v.term(id)
	if !ok {
		return strdf.SpatialValue{}, false
	}
	g, err := v.e.parseGeom(t)
	if err != nil {
		return strdf.SpatialValue{}, false
	}
	return g, true
}

func (v *vexec) compileGeomArg(a Expression) (geomSrc, bool) {
	switch at := a.(type) {
	case *EVar:
		return geomSrc{slot: v.slotOf(at.Name), isVar: true}, true
	case *ELit:
		if at.Term.IsSpatial() {
			if g, err := v.e.parseGeom(at.Term); err == nil {
				return geomSrc{slot: -1, c: g}, true
			}
		}
	}
	return geomSrc{}, false
}

var spatialPredicates = map[string]func(a, b geo.Geometry) bool{
	"intersects":  geo.Intersects,
	"anyinteract": geo.Intersects,
	"within":      geo.Within,
	"contains":    geo.Contains,
	"disjoint":    geo.Disjoint,
	"touches":     geo.Touches,
	"crosses":     geo.Crosses,
	"overlaps":    geo.Overlaps,
	"equals":      geo.Equals,
}

// compileFastFilter builds an id-space evaluator for the filter shapes
// that dominate stSPARQL workloads: binary spatial predicates, distance
// comparisons, and conjunctions of those. It returns nil when the shape
// is not covered; the returned function's second result is false when the
// row needs the generic (decoding) evaluator. The compiled closures keep
// no per-row state, so filter morsels share them safely.
func (v *vexec) compileFastFilter(f Expression) func(*vtable, int) (bool, bool) {
	switch t := f.(type) {
	case *EBinary:
		switch t.Op {
		case "&&":
			l := v.compileFastFilter(t.Left)
			r := v.compileFastFilter(t.Right)
			if l == nil || r == nil {
				return nil
			}
			return func(in *vtable, row int) (bool, bool) {
				lk, lok := l(in, row)
				if !lok {
					return false, false
				}
				if !lk {
					return false, true
				}
				return r(in, row)
			}
		case "<", "<=", ">", ">=", "=", "!=":
			call, lit, flipped := distanceShape(t)
			if call == nil {
				return nil
			}
			limit, ok := numericValue(lit.Term)
			if !ok {
				return nil
			}
			g1, ok1 := v.compileGeomArg(call.Args[0])
			g2, ok2 := v.compileGeomArg(call.Args[1])
			if !ok1 || !ok2 {
				return nil
			}
			op := t.Op
			if flipped {
				op = flipCmp(op)
			}
			return func(in *vtable, row int) (bool, bool) {
				a, ok := v.fetchGeom(g1, in, row)
				if !ok {
					return false, true
				}
				b, ok := v.fetchGeom(g2, in, row)
				if !ok {
					return false, true
				}
				d := geo.GeodesicDistanceMeters(a.Geom, b.Geom)
				return cmpFloat(op, d, limit), true
			}
		}
	case *ECall:
		if t.NS != "strdf" && t.NS != "geof" {
			return nil
		}
		pred, ok := spatialPredicates[t.Name]
		if !ok || len(t.Args) != 2 {
			return nil
		}
		g1, ok1 := v.compileGeomArg(t.Args[0])
		g2, ok2 := v.compileGeomArg(t.Args[1])
		if !ok1 || !ok2 {
			return nil
		}
		return func(in *vtable, row int) (bool, bool) {
			a, ok := v.fetchGeom(g1, in, row)
			if !ok {
				return false, true
			}
			b, ok := v.fetchGeom(g2, in, row)
			if !ok {
				return false, true
			}
			return pred(a.Geom, b.Geom), true
		}
	}
	return nil
}

// distanceShape matches strdf:distance(x, y) OP literal (either operand
// order); flipped reports that the call was on the right.
func distanceShape(t *EBinary) (*ECall, *ELit, bool) {
	if c, ok := t.Left.(*ECall); ok && (c.NS == "strdf" || c.NS == "geof") && c.Name == "distance" && len(c.Args) == 2 {
		if lit, ok := t.Right.(*ELit); ok {
			return c, lit, false
		}
	}
	if c, ok := t.Right.(*ECall); ok && (c.NS == "strdf" || c.NS == "geof") && c.Name == "distance" && len(c.Args) == 2 {
		if lit, ok := t.Left.(*ELit); ok {
			return c, lit, true
		}
	}
	return nil, nil, false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

func cmpFloat(op string, a, b float64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	case "=":
		return a == b
	case "!=":
		return a != b
	}
	return false
}

// --- SELECT pipeline -------------------------------------------------------

// evalSelectVec is the vectorized SELECT: the group evaluates in id space,
// DISTINCT deduplicates on id tuples, and only the surviving rows are
// decoded (after OFFSET/LIMIT when there is no ORDER BY).
func (e *Engine) evalSelectVec(ctx context.Context, q *Query) (*Result, error) {
	return e.evalSelectVecWith(newVexec(ctx, e), q)
}

// evalSelectVecWith runs the SELECT pipeline over a caller-supplied
// executor, which EXPLAIN reuses to harvest the measured plan.
func (e *Engine) evalSelectVecWith(v *vexec, q *Query) (*Result, error) {
	tb, err := v.evalRoot(q.Where)
	if err != nil {
		return nil, err
	}
	if len(q.GroupBy) > 0 || hasAggregate(q.Projections) {
		return e.evalAggregateSelect(q, v.decodeTable(tb))
	}
	var vars []string
	if q.SelectStar {
		vars = v.starVars(tb)
	} else {
		for _, pr := range q.Projections {
			vars = append(vars, pr.Var)
		}
	}
	for _, pr := range q.Projections {
		if pr.Expr != nil {
			// Expression projections need decoded rows; run the binding
			// projection pipeline over the decoded table.
			return e.projectSelect(q, vars, v.decodeTable(tb))
		}
	}
	slots := make([]int, len(vars))
	for i, name := range vars {
		slots[i] = v.slotOf(name)
	}
	idx := make([]int, tb.n())
	for i := range idx {
		idx[i] = i
	}
	if q.Distinct {
		idx = distinctRowIdx(tb, slots, idx)
	}
	if len(q.OrderBy) == 0 {
		idx = sliceIdx(idx, q.Offset, q.Limit)
		return &Result{Vars: vars, Bindings: v.decodeRows(tb, idx, vars, slots)}, nil
	}
	// ORDER BY over projected plain variables sorts row indices on decoded
	// key terms, deferring full materialisation to after OFFSET/LIMIT.
	// (Only projected variables: the reference pipeline sorts the projected
	// bindings, where anything else is unbound.)
	if keySlots, ok := orderKeySlots(q.OrderBy, vars, slots); ok {
		v.sortIdx(tb, idx, q.OrderBy, keySlots)
		idx = sliceIdx(idx, q.Offset, q.Limit)
		return &Result{Vars: vars, Bindings: v.decodeRows(tb, idx, vars, slots)}, nil
	}
	out := v.decodeRows(tb, idx, vars, slots)
	if err := e.orderBindings(out, q.OrderBy); err != nil {
		return nil, err
	}
	out = sliceBindings(out, q.Offset, q.Limit)
	return &Result{Vars: vars, Bindings: out}, nil
}

// orderKeySlots resolves ORDER BY keys to projection slots when every key
// is a plain projected variable.
func orderKeySlots(keys []OrderKey, vars []string, slots []int) ([]int, bool) {
	out := make([]int, len(keys))
	for i, k := range keys {
		ev, isVar := k.Expr.(*EVar)
		if !isVar {
			return nil, false
		}
		found := -1
		for j, name := range vars {
			if name == ev.Name {
				found = slots[j]
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		out[i] = found
	}
	return out, true
}

// sortIdx stable-sorts row indices by pre-decoded ORDER BY key terms,
// mirroring the reference comparator (rows where either side is unbound
// compare equal on that key).
func (v *vexec) sortIdx(tb *vtable, idx []int, keys []OrderKey, keySlots []int) {
	k := len(keySlots)
	skeys := make([]sortKey, len(idx)*k)
	for i, r := range idx {
		for j, s := range keySlots {
			if id := tb.get(r, s); id != 0 {
				if t, ok := v.term(id); ok {
					skeys[i*k+j] = makeSortKey(t)
				}
			}
		}
	}
	perm := make([]int, len(idx))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ta := skeys[perm[a]*k : perm[a]*k+k]
		tb2 := skeys[perm[b]*k : perm[b]*k+k]
		for j := range keys {
			vi, vj := &ta[j], &tb2[j]
			if vi.term.IsZero() || vj.term.IsZero() {
				continue
			}
			c := compareSortKeys(vi, vj)
			if c == 0 {
				continue
			}
			if keys[j].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]int, len(idx))
	for i, p := range perm {
		sorted[i] = idx[p]
	}
	copy(idx, sorted)
}

// sortKey caches the numeric/temporal interpretation of an ORDER BY key
// term so comparisons during the sort don't re-parse literals.
type sortKey struct {
	term   rdf.Term
	num    float64
	when   time.Time
	numOK  bool
	timeOK bool
}

func makeSortKey(t rdf.Term) sortKey {
	k := sortKey{term: t}
	if f, ok := numericValue(t); ok {
		k.num, k.numOK = f, true
	} else if tm, ok := timeValue(t); ok {
		k.when, k.timeOK = tm, true
	}
	return k
}

// compareSortKeys mirrors compareTerms over the cached interpretations.
func compareSortKeys(a, b *sortKey) int {
	if a.numOK && b.numOK {
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		default:
			return 0
		}
	}
	if a.timeOK && b.timeOK {
		switch {
		case a.when.Before(b.when):
			return -1
		case a.when.After(b.when):
			return 1
		default:
			return 0
		}
	}
	return compareTerms(a.term, b.term)
}

// projectSelect is the projection/distinct/order/slice pipeline
// over already-decoded bindings, shared by the expression-projection path.
func (e *Engine) projectSelect(q *Query, vars []string, bindings []Binding) (*Result, error) {
	out := make([]Binding, 0, len(bindings))
	for _, b := range bindings {
		nb := Binding{}
		for _, v := range vars {
			if t, ok := b[v]; ok {
				nb[v] = t
			}
		}
		for _, pr := range q.Projections {
			if pr.Expr == nil {
				continue
			}
			t, err := e.evalExpr(pr.Expr, b)
			if err == nil && !t.IsZero() {
				nb[pr.Var] = t
			}
		}
		out = append(out, nb)
	}
	if q.Distinct {
		out = distinctBindings(vars, out)
	}
	if len(q.OrderBy) > 0 {
		if err := e.orderBindings(out, q.OrderBy); err != nil {
			return nil, err
		}
	}
	out = sliceBindings(out, q.Offset, q.Limit)
	return &Result{Vars: vars, Bindings: out}, nil
}

func sliceBindings(out []Binding, offset, limit int) []Binding {
	if offset > 0 {
		if offset >= len(out) {
			out = nil
		} else {
			out = out[offset:]
		}
	}
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func sliceIdx(idx []int, offset, limit int) []int {
	if offset > 0 {
		if offset >= len(idx) {
			idx = nil
		} else {
			idx = idx[offset:]
		}
	}
	if limit >= 0 && len(idx) > limit {
		idx = idx[:limit]
	}
	return idx
}

// distinctRowIdx deduplicates rows on the projected slots' id tuples —
// id equality is term equality, so no decoding is needed.
func distinctRowIdx(tb *vtable, slots []int, idx []int) []int {
	seen := make(map[string]struct{}, len(idx))
	key := make([]byte, len(slots)*8)
	out := idx[:0]
	for _, r := range idx {
		for i, s := range slots {
			binary.LittleEndian.PutUint64(key[i*8:], tb.get(r, s))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// starVars lists the variables bound in at least one row, sorted — the
// SELECT * projection.
func (v *vexec) starVars(tb *vtable) []string {
	var vars []string
	for s := 0; s < tb.width && s < len(v.vars); s++ {
		for r := 0; r < tb.n(); r++ {
			if tb.get(r, s) != 0 {
				vars = append(vars, v.vars[s])
				break
			}
		}
	}
	sort.Strings(vars)
	return vars
}

// decodeRows materialises the selected rows' projected variables.
func (v *vexec) decodeRows(tb *vtable, idx []int, vars []string, slots []int) []Binding {
	out := make([]Binding, 0, len(idx))
	for _, r := range idx {
		nb := make(Binding, len(vars))
		for i, s := range slots {
			id := tb.get(r, s)
			if id == 0 {
				continue
			}
			if t, ok := v.term(id); ok {
				nb[vars[i]] = t
			}
		}
		out = append(out, nb)
	}
	return out
}

// decodeTable materialises every row with every bound variable — the
// boundary for aggregates, CONSTRUCT templates and updates. The store ids
// are decoded in one batch under a single dictionary lock.
func (v *vexec) decodeTable(tb *vtable) []Binding {
	terms := make([]rdf.Term, len(tb.rows))
	v.snap.DecodeAll(tb.rows, terms)
	out := make([]Binding, 0, tb.n())
	for r := 0; r < tb.n(); r++ {
		nb := make(Binding, tb.width)
		base := r * tb.width
		for s := 0; s < tb.width; s++ {
			id := tb.rows[base+s]
			if id == 0 {
				continue
			}
			if id&extraBit != 0 {
				nb[v.vars[s]] = v.extra[id&^extraBit]
				continue
			}
			t := terms[base+s]
			if !t.IsZero() {
				nb[v.vars[s]] = t
			}
		}
		out = append(out, nb)
	}
	return out
}
