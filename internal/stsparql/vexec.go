package stsparql

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/rdf"
	"repro/internal/rtree"
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

type viewKey struct{}

// WithView returns ctx carrying sn, a view of the engine's store: a read
// evaluated under it reads sn, not the store's current Snapshot, so the
// endpoint's ETag and cache key name exactly the view it read.
func WithView(ctx context.Context, sn *strabon.Snapshot) context.Context {
	return context.WithValue(ctx, viewKey{}, sn)
}

func newVexec(ctx context.Context, e *Engine) *vexec {
	if sn, ok := ctx.Value(viewKey{}).(*strabon.Snapshot); ok {
		return newVexecOn(ctx, e, sn)
	}
	return newVexecOn(ctx, e, e.store.Snapshot())
}

// newVexecOn is newVexec over a given snapshot: a modify evaluates its
// WHERE on the view Store.Update hands it.
func newVexecOn(ctx context.Context, e *Engine, snap *strabon.Snapshot) *vexec {
	// extraID and scratch are allocated on first use.
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

// execGroup runs one compiled group: the pattern run (scans, joins,
// spatial joins and the filters placed among them), then BIND, the
// residual FILTERs, UNION and OPTIONAL operators, recording measured
// cardinalities on the plan. Once the run produces zero rows its
// remaining operators are skipped (they cannot add rows), matching the
// reference pipeline.
func (v *vexec) execGroup(p *groupPlan, in *vtable) (*vtable, error) {
	cur := in
	emptyRun := false
	for i, n := range p.nodes {
		if err := v.ctx.Err(); err != nil {
			return nil, err
		}
		if emptyRun && i < p.run {
			continue
		}
		var err error
		switch n.kind {
		case nodeScan, nodeJoin:
			cur, err = v.evalPattern(n, cur, p.hints)
		case nodeSpatialJoin:
			cur, err = v.evalSpatialJoin(n, cur)
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
		if i < p.run && cur.n() == 0 {
			emptyRun = true
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
	// A nil set means no pushdown; an empty one filters out every row.
	var spatialSet *idTable[uint64]
	if ov := objVar(pat); ov != "" && (kind[2] == posNew || kind[2] == posMixed) {
		if env, ok := hints[ov]; ok {
			spatialSet = newIDSet(v.snap.SpatialCandidates(env))
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
			if spatialSet != nil {
				if o := v.snap.ColID(2, c); !spatialSet.has(o, hashID(o)) {
					continue
				}
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
		h := buildJoinTable(valid, func(c int32) uint64 { return col(jp, c) }, hashID)
		out, nm, err = v.runMorsels(in.n(), morselMinJoinRows, width, func(lo, hi int, part *vtable) error {
			part.rows = make([]uint64, 0, (hi-lo)*width)
			part.origin = make([]int32, 0, hi-lo)
			for r := lo; r < hi; r++ {
				if (r-lo)&8191 == 8191 {
					if err := v.ctx.Err(); err != nil {
						return err
					}
				}
				k := in.get(r, js)
				for _, c := range h.bucket(k, hashID(k)) {
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
		h := buildJoinTable(valid, key3, hashKey3)
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
				for _, c := range h.bucket(key, hashKey3(key)) {
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

// evalPatternPerRow handles patterns whose variables are bound in only
// some rows (and the adaptive few-rows-vs-many-candidates join): each row
// probes the index with its own bound ids, morsel-parallel over rows with
// a per-morsel probe buffer.
func (v *vexec) evalPatternPerRow(n *planNode, pat Pattern, constPat strabon.TriplePattern, kind [3]int, slotAt [3]int, in *vtable, width int, spatialSet *idTable[uint64]) (*vtable, error) {
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
				if spatialSet != nil && kind[2] != posConst && in.get(r, slotAt[2]) == 0 && !spatialSet.has(o, hashID(o)) {
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

// evalSpatialJoin joins the rows so far (outer) to the node's pattern
// run (inner) on its spatial conjunct. The run shares no variable with
// the outer rows, so it is evaluated once from the seed row; an R-tree
// bulk-loaded over its geometries answers, for each outer row, which
// inner rows can satisfy the conjunct, and the conjunct is then checked
// exactly on those, in ascending inner order. Since the cross product
// would emit, for each outer row in order, every inner row in order,
// the output is that cross product filtered, row for row. Morsels split
// the outer rows.
func (v *vexec) evalSpatialJoin(n *planNode, outer *vtable) (*vtable, error) {
	if outer.n() == 0 {
		return outer, nil
	}
	inner, err := v.execGroup(n.inner, v.seed())
	if err != nil {
		return nil, err
	}
	width := len(v.vars)
	if width < outer.width {
		width = outer.width
	}
	if inner.n() == 0 {
		return &vtable{width: width}, nil
	}
	innerGeom := geomSrc{slot: v.slotOf(n.sj.inner), isVar: true}
	items := make([]rtree.Item, 0, inner.n())
	// Empty geometries have empty envelopes, which no probe meets; only
	// an empty outer geometry can relate to them (strdf:equals).
	var empties []int32
	// innerLat bounds the inner geometries' |latitude|, which is what a
	// distance probe must widen for (geo.ExpandMeters).
	innerLat := 0.0
	for c := 0; c < inner.n(); c++ {
		g, ok := v.fetchGeom(innerGeom, inner, c)
		if !ok {
			continue // the conjunct is false for this row
		}
		if env := g.Geom.Envelope(); !env.IsEmpty() {
			items = append(items, rtree.Item{Box: env, ID: uint64(c)})
			innerLat = max(innerLat, math.Abs(env.MinY), math.Abs(env.MaxY))
		} else {
			empties = append(empties, int32(c))
		}
	}
	tree := rtree.BulkLoad(items, 0)
	var innerSlots []int
	for _, nd := range n.inner.nodes {
		for _, name := range nd.pat.Vars() {
			if s := v.slotOf(name); !slices.Contains(innerSlots, s) {
				innerSlots = append(innerSlots, s)
			}
		}
	}
	outerGeom := geomSrc{slot: v.slotOf(n.sj.outer), isVar: true}
	refs := v.resolveRefs(exprVars(n.filt))
	out, nm, err := v.runMorsels(outer.n(), morselMinFilterRows, width, func(lo, hi int, part *vtable) error {
		fast := v.compileFastFilter(n.filt) // morsel-local, see compileFastFilter
		var (
			scratch           Binding
			ids               []uint64
			cands             []int32
			probes, candCount int64
		)
		for r := lo; r < hi; r++ {
			if (r-lo)&1023 == 1023 {
				if err := v.ctx.Err(); err != nil {
					return err
				}
			}
			g, ok := v.fetchGeom(outerGeom, outer, r)
			if !ok {
				continue
			}
			probes++
			cands = cands[:0]
			if env := g.Geom.Envelope(); env.IsEmpty() {
				cands = append(cands, empties...)
			} else {
				ids = tree.Search(geo.ExpandMeters(env, n.sj.meters, innerLat), ids[:0])
				for _, id := range ids {
					cands = append(cands, int32(id))
				}
				slices.Sort(cands)
			}
			candCount += int64(len(cands))
			for _, c := range cands {
				row := part.append(outer.row(r), outer.origin[r])
				for _, s := range innerSlots {
					row[s] = inner.get(int(c), s)
				}
				last := part.n() - 1
				keep, err := v.keepRow(n.filt, fast, refs, part, last, &scratch)
				if err != nil {
					return err
				}
				if !keep {
					part.rows = part.rows[:last*width]
					part.origin = part.origin[:last]
				}
			}
		}
		n.probes.Add(probes)
		n.candidates.Add(candCount)
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
// rows. Spatial predicate, distance and typed comparison filters run in
// id space (compileFastFilter), compiled per morsel; everything else
// decodes just the referenced variables per row into a morsel-local
// scratch binding (Engine.evalExpr is safe for concurrent evaluations).
func (v *vexec) evalFilterTable(n *planNode, in *vtable) (*vtable, error) {
	f := n.filt
	if in.n() == 0 {
		return in, nil
	}
	// Resolved unconditionally BEFORE the fan-out: the closure below runs
	// on concurrent workers, and a compiled fast filter may decline
	// individual rows (handled=false), so the generic path must never
	// lazily initialise shared state from inside a morsel.
	refs := v.resolveRefs(exprVars(f))
	out, nm, err := v.runMorsels(in.n(), morselMinFilterRows, in.width, func(lo, hi int, part *vtable) error {
		var scratch Binding // morsel-local: never shared across workers
		fast := v.compileFastFilter(f)
		part.rows = make([]uint64, 0, (hi-lo)*in.width)
		part.origin = make([]int32, 0, hi-lo)
		for r := lo; r < hi; r++ {
			if (r-lo)&1023 == 1023 {
				if err := v.ctx.Err(); err != nil {
					return err
				}
			}
			keep, err := v.keepRow(f, fast, refs, in, r, &scratch)
			if err != nil {
				return err
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

// keepRow evaluates filter f on row r of tb: through its compiled fast
// path when that handles the row, else through the generic evaluator
// over the referenced variables decoded into *scratch, which the caller
// keeps per morsel.
func (v *vexec) keepRow(f Expression, fast func(*vtable, int) (bool, bool), refs []refSlot, tb *vtable, r int, scratch *Binding) (bool, error) {
	if fast != nil {
		if keep, handled := fast(tb, r); handled {
			return keep, nil
		}
	}
	*scratch = v.bindingInto(*scratch, refs, tb, r)
	return v.e.evalFilter(f, *scratch)
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
	// Computed terms and literals outside the snapshot's geometries go
	// through strdf's bounded parse cache.
	t, ok := v.term(id)
	if !ok {
		return strdf.SpatialValue{}, false
	}
	g, err := strdf.ParseWGS84(t)
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
			if g, err := strdf.ParseWGS84(at.Term); err == nil {
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
// comparisons, typed comparisons of a variable with a literal (?v OP
// literal, either order), and conjunctions of those. It returns nil when
// the shape is not covered; the returned function's second result is
// false when the row needs the generic (decoding) evaluator. A compiled
// comparison remembers its last row's answer, so each morsel compiles
// its own; compiling reads only the slot map and parses only constants.
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
			if ev, lit, flipped := varLitShape(t); ev != nil {
				return v.compileComparison(ev, lit, t.Op, flipped)
			}
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
				return cmpHolds(op, compareNum(d, limit)), true
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

// compileComparison compiles ?v OP literal: the literal's key is parsed
// once, and each row's term is decoded from the dictionary and compared
// through compareKeys, as evalBinary's compareTerms would compare it. An
// unbound row fails, as the generic evaluator's unbound error does. The
// answer depends on the id alone, so a row repeating the previous row's
// id reuses its answer: rows arrive grouped by subject, and, say, a
// product's hotspots share one acquisition time.
func (v *vexec) compileComparison(ev *EVar, lit *ELit, op string, flipped bool) func(*vtable, int) (bool, bool) {
	if flipped {
		op = flipCmp(op)
	}
	slot := v.slotOf(ev.Name)
	want := makeCmpKey(lit.Term)
	var lastID uint64
	var last bool
	return func(in *vtable, row int) (bool, bool) {
		id := in.get(row, slot)
		if id == lastID {
			return last, true
		}
		t, ok := v.term(id)
		if !ok {
			return false, true
		}
		k := makeCmpKey(t)
		lastID, last = id, cmpHolds(op, compareKeys(&k, &want))
		return last, true
	}
}

// varLitShape matches ?v OP literal (either operand order); flipped
// reports that the variable was on the right.
func varLitShape(t *EBinary) (*EVar, *ELit, bool) {
	if ev, ok := t.Left.(*EVar); ok {
		if lit, ok := t.Right.(*ELit); ok {
			return ev, lit, false
		}
	}
	if ev, ok := t.Right.(*EVar); ok {
		if lit, ok := t.Left.(*ELit); ok {
			return ev, lit, true
		}
	}
	return nil, nil, false
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

// --- SELECT pipeline -------------------------------------------------------

// evalSelectVec is the vectorized SELECT: the group evaluates in id space,
// and so does the whole solution-modifier tail; only the rows of the
// requested page are decoded.
func (e *Engine) evalSelectVec(ctx context.Context, q *Query) (*Result, error) {
	return e.evalSelectVecWith(newVexec(ctx, e), q)
}

// evalSelectVecWith runs the SELECT pipeline over a caller-supplied
// executor, which EXPLAIN reuses to harvest the measured plan. The tail
// runs in SPARQL 1.1's order (§18.2.4–5) over the slot table: aggregate
// or extend by the projection expressions, then ORDER BY (on any
// in-scope variable or expression), project, DISTINCT and slice.
func (e *Engine) evalSelectVecWith(v *vexec, q *Query) (*Result, error) {
	tb, err := v.evalRoot(q.Where)
	if err != nil {
		return nil, err
	}
	aggregated := len(q.GroupBy) > 0 || hasAggregate(q.Projections)
	if aggregated {
		if tb, err = v.aggregate(q, tb); err != nil {
			return nil, err
		}
	} else {
		for _, pr := range q.Projections {
			if pr.Expr != nil {
				tb = v.evalBind(BindClause{Expr: pr.Expr, Var: pr.Var}, tb)
			}
		}
	}
	var vars []string
	if q.SelectStar && !aggregated {
		vars = v.starVars(tb)
	} else {
		for _, pr := range q.Projections {
			vars = append(vars, pr.Var)
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
	// DISTINCT keeps each tuple's first row in sorted order. When every
	// key is a projected variable, a tuple's rows tie on every key and
	// stay in row order, so deduplicating first keeps the same rows in
	// the same order and sorts only the survivors.
	early := q.Distinct && !slices.ContainsFunc(q.OrderBy, func(k OrderKey) bool {
		ev, ok := k.Expr.(*EVar)
		return !ok || !slices.Contains(vars, ev.Name)
	})
	if early {
		_, idx = groupRows(tb, slots, idx)
	}
	idx = v.sortIdx(tb, q.OrderBy, idx)
	if q.Distinct && !early {
		_, idx = groupRows(tb, slots, idx)
	}
	idx = sliceIdx(idx, q.Offset, q.Limit)
	return &Result{Vars: vars, Bindings: v.decodeRows(tb, idx, vars, slots)}, nil
}

// sortIdx returns the rows idx, which ascend, stable-sorted by the ORDER
// BY keys: a variable's slot, or an expression evaluated per row, each
// parsed to a cmpKey once per row. An unbound or erroring key sorts
// before every bound value (SPARQL 1.1 §15.1), so the comparator is a
// total order.
func (v *vexec) sortIdx(tb *vtable, keys []OrderKey, idx []int) []int {
	if len(keys) == 0 {
		return idx
	}
	k := len(keys)
	skeys := make([]cmpKey, len(idx)*k)
	for j, key := range keys {
		if ev, ok := key.Expr.(*EVar); ok {
			s := v.slotOf(ev.Name)
			for i, r := range idx {
				if t, ok := v.term(tb.get(r, s)); ok {
					skeys[i*k+j] = makeCmpKey(t)
				}
			}
			continue
		}
		refs := v.resolveRefs(exprVars(key.Expr))
		for i, r := range idx {
			v.scratch = v.bindingInto(v.scratch, refs, tb, r)
			if t, err := v.e.evalExpr(key.Expr, v.scratch); err == nil {
				skeys[i*k+j] = makeCmpKey(t)
			}
		}
	}
	// Sort positions in idx; ties fall back to position, which is row
	// order, so the sort is stable.
	pos := make([]int, len(idx))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int {
		ka, kb := skeys[a*k:a*k+k], skeys[b*k:b*k+k]
		for j := range ka {
			c := 0
			switch x, y := &ka[j], &kb[j]; {
			case x.term.IsZero() && y.term.IsZero():
			case x.term.IsZero():
				c = -1
			case y.term.IsZero():
				c = 1
			default:
				c = compareKeys(x, y)
			}
			if keys[j].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return a - b
	})
	for i, p := range pos {
		pos[i] = idx[p]
	}
	return pos
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

// groupRows numbers the rows of idx by their id tuple over slots in
// first-seen order — id equality is term equality, so nothing is
// decoded — and returns each row's group and the first row of each
// group: GROUP BY's groups, and DISTINCT's survivors.
func groupRows(tb *vtable, slots []int, idx []int) (gid []int32, firsts []int) {
	seen := map[string]int32{}
	key := make([]byte, len(slots)*8)
	gid = make([]int32, len(idx))
	for i, r := range idx {
		for j, s := range slots {
			binary.LittleEndian.PutUint64(key[j*8:], tb.get(r, s))
		}
		g, ok := seen[string(key)]
		if !ok {
			g = int32(len(firsts))
			seen[string(key)] = g
			firsts = append(firsts, r)
		}
		gid[i] = g
	}
	return gid, firsts
}

// aggregate collapses tb to one row per group, in first-seen order: the
// GROUP BY keys' ids and one id per aggregate projection, in the same
// slot space, every other slot unbound. Without GROUP BY the whole table
// is one group, even when it is empty.
func (v *vexec) aggregate(q *Query, tb *vtable) (*vtable, error) {
	type column struct {
		call *ECall
		slot int
	}
	var cols []column
	for _, pr := range q.Projections {
		s := v.addSlot(pr.Var)
		if pr.Expr == nil {
			if !slices.Contains(q.GroupBy, pr.Var) {
				return nil, fmt.Errorf("stsparql: projected variable ?%s is not in GROUP BY", pr.Var)
			}
			continue
		}
		c, ok := pr.Expr.(*ECall)
		if !ok || !isAggregateName(c.Name) {
			return nil, fmt.Errorf("stsparql: aggregate queries allow only aggregate expression projections")
		}
		if !(c.Name == "count" && c.Star) && len(c.Args) != 1 {
			return nil, fmt.Errorf("stsparql: %s takes one argument", strings.ToUpper(c.Name))
		}
		cols = append(cols, column{c, s})
	}
	keySlots := make([]int, len(q.GroupBy))
	for i, name := range q.GroupBy {
		keySlots[i] = v.slotOf(name)
	}
	gid := make([]int32, tb.n())
	firsts := []int{-1}
	if len(q.GroupBy) > 0 {
		all := make([]int, tb.n())
		for i := range all {
			all[i] = i
		}
		gid, firsts = groupRows(tb, keySlots, all)
	}
	width := len(v.vars)
	out := &vtable{width: width, rows: make([]uint64, len(firsts)*width), origin: make([]int32, len(firsts))}
	for g, r := range firsts {
		out.origin[g] = int32(g)
		for _, s := range keySlots {
			if s >= 0 {
				out.rows[g*width+s] = tb.get(r, s)
			}
		}
	}
	for _, col := range cols {
		vals, err := v.aggregateCall(col.call, tb, gid, len(firsts))
		if err != nil {
			return nil, err
		}
		for g, id := range vals {
			out.rows[g*width+col.slot] = id
		}
	}
	return out, nil
}

// aggregateCall computes one aggregate for each of n groups, as ids (0:
// unbound, the value of SUM, AVG, MIN and MAX over no value). COUNT(*)
// and COUNT(?v) count ids; COUNT(expr) evaluates expr per row, as a
// FILTER does; SUM, AVG, MIN and MAX decode each distinct argument id
// once. A row whose argument is unbound or errors is skipped.
func (v *vexec) aggregateCall(c *ECall, tb *vtable, gid []int32, n int) ([]uint64, error) {
	// arg yields row r's argument id; ok is false when it is unbound or
	// errors. COUNT(expr) needs only ok, so it interns nothing.
	var arg func(r int) (uint64, bool)
	if c.Star {
		arg = func(int) (uint64, bool) { return 0, true }
	} else if ev, isVar := c.Args[0].(*EVar); isVar {
		s := v.slotOf(ev.Name)
		arg = func(r int) (uint64, bool) {
			id := tb.get(r, s)
			return id, id != 0
		}
	} else {
		ex := c.Args[0]
		refs := v.resolveRefs(exprVars(ex))
		arg = func(r int) (uint64, bool) {
			v.scratch = v.bindingInto(v.scratch, refs, tb, r)
			t, err := v.e.evalExpr(ex, v.scratch)
			if err != nil || t.IsZero() {
				return 0, false
			}
			if c.Name == "count" {
				return 0, true
			}
			return v.idOf(t), true
		}
	}
	count := make([]int64, n)
	out := make([]uint64, n)
	if c.Name == "count" {
		for r := 0; r < tb.n(); r++ {
			if _, ok := arg(r); ok {
				count[gid[r]]++
			}
		}
		for g, k := range count {
			out[g] = v.idOf(rdf.IntegerLiteral(k))
		}
		return out, nil
	}
	keyOf := map[uint64]int32{}
	var keys []cmpKey
	sum := make([]float64, n)
	best := make([]int32, n) // MIN's or MAX's key so far
	for r := 0; r < tb.n(); r++ {
		id, ok := arg(r)
		if !ok {
			continue
		}
		ki, seen := keyOf[id]
		if !seen {
			t, _ := v.term(id)
			ki = int32(len(keys))
			keys = append(keys, makeCmpKey(t))
			keyOf[id] = ki
		}
		k, g := &keys[ki], gid[r]
		switch c.Name {
		case "sum", "avg":
			if !k.numOK {
				return nil, fmt.Errorf("stsparql: %s over non-numeric value %s", strings.ToUpper(c.Name), k.term)
			}
			sum[g] += k.num
		case "min":
			if count[g] == 0 || compareKeys(k, &keys[best[g]]) < 0 {
				best[g], out[g] = ki, id
			}
		case "max":
			if count[g] == 0 || compareKeys(k, &keys[best[g]]) > 0 {
				best[g], out[g] = ki, id
			}
		}
		count[g]++
	}
	for g, m := range count {
		switch {
		case m == 0:
		case c.Name == "sum":
			out[g] = v.idOf(rdf.DoubleLiteral(sum[g]))
		case c.Name == "avg":
			out[g] = v.idOf(rdf.DoubleLiteral(sum[g] / float64(m)))
		}
	}
	return out, nil
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
// boundary for CONSTRUCT templates and updates. The store ids
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
