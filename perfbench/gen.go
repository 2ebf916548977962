package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
)

// Every input the program sees comes from these generators, seeded by
// --seed. Each client goroutine draws from its own stream, so a seed
// fixes every goroutine's operation sequence whatever the timing.

// stream derives an independent generator for one purpose of a seed.
func stream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// --- neworder ---

const (
	noWarehouses = 8
	noDistricts  = 10
	noCustomers  = 30
	noItems      = 1000
	noTags       = 4
)

// newOrderOp is one New-Order transaction's inputs.
type newOrderOp struct {
	seq     int64 // o_entry_d: the op's position in its stream
	w, d, c int64
	items   []int64
	qty     []int64
}

func (o newOrderOp) String() string {
	return fmt.Sprintf("no %d w%d d%d c%d %v %v", o.seq, o.w, o.d, o.c, o.items, o.qty)
}

type newOrderGen struct {
	rng *rand.Rand
	seq int64
}

func newNewOrderGen(seed int64, worker int) *newOrderGen {
	return &newOrderGen{rng: stream(seed, 100+int64(worker))}
}

func (g *newOrderGen) next() newOrderOp {
	g.seq++
	op := newOrderOp{
		seq: g.seq,
		w:   1 + g.rng.Int63n(noWarehouses),
		d:   1 + g.rng.Int63n(noDistricts),
		c:   1 + g.rng.Int63n(noCustomers),
	}
	lines := 5 + g.rng.Intn(11) // 5..15, per TPC-C
	for i := 0; i < lines; i++ {
		op.items = append(op.items, 1+g.rng.Int63n(noItems))
		op.qty = append(op.qty, 1+g.rng.Int63n(10))
	}
	return op
}

// --- tenant-point ---

const (
	tpRowsPerTenant = 50_000
	tpInsertBase    = 2 * tpRowsPerTenant // first key an insert may use
	tpZipfS         = 1.1
)

type tpKind int

const (
	tpRead      tpKind = iota // own key
	tpCrossRead               // the other tenant's key
	tpUpdate
	tpInsert
)

// tenantOp is one statement of one tenant. Tenant t owns keys
// congruent to t mod 2, so the two tenants' rows interleave in the
// primary-key index.
type tenantOp struct {
	kind tpKind
	k, v int64
}

func (o tenantOp) String() string { return fmt.Sprintf("tp %d k%d v%d", o.kind, o.k, o.v) }

type tenantGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	tenant  int64
	inserts int64
}

func newTenantGen(seed int64, tenant int) *tenantGen {
	rng := stream(seed, 200+int64(tenant))
	return &tenantGen{rng: rng, zipf: rand.NewZipf(rng, tpZipfS, 1, tpRowsPerTenant-1), tenant: int64(tenant)}
}

// tpInitial is the loaded value of key k.
func tpInitial(seed, k int64) int64 {
	x := uint64(k)*0x9E3779B97F4A7C15 ^ uint64(seed)*0xBF58476D1CE4E5B9
	return int64(x >> 34)
}

func (g *tenantGen) next() tenantOp {
	r := g.rng.Float64()
	idx := int64(g.zipf.Uint64())
	switch {
	case r < 0.7:
		return tenantOp{kind: tpRead, k: 2*idx + g.tenant}
	case r < 0.8:
		return tenantOp{kind: tpCrossRead, k: 2*idx + 1 - g.tenant}
	case r < 0.9:
		// Updates spread uniformly: a Zipf-hot key updated at every
		// tenth statement grows a version chain every later read of it
		// walks (nothing vacuums an in-process node), so latency would
		// climb for the whole window and differ from run to run.
		return tenantOp{kind: tpUpdate, k: 2*g.rng.Int63n(tpRowsPerTenant) + g.tenant, v: g.rng.Int63n(1 << 30)}
	default:
		g.inserts++
		return tenantOp{kind: tpInsert, k: tpInsertBase + 2*g.inserts + g.tenant, v: g.rng.Int63n(1 << 30)}
	}
}

// --- labeled-analytics ---

const (
	laRows   = 40_000
	laGroups = 16
)

type laKind int

const (
	laAgg laKind = iota
	laStream
	laTopK
)

// analyticsOp is one keyless query; threshold parameterizes the
// filtered stream (v < threshold, ~5% of the rows).
type analyticsOp struct {
	kind      laKind
	threshold int64
}

func (o analyticsOp) String() string { return fmt.Sprintf("la %d %d", o.kind, o.threshold) }

type analyticsGen struct {
	rng  *rand.Rand
	turn int
}

func newAnalyticsGen(seed int64) *analyticsGen {
	rng := stream(seed, 300)
	return &analyticsGen{rng: rng, turn: rng.Intn(3)}
}

// next cycles agg → stream → top-K from a seeded starting point, so
// every GROUP BY follows a top-K.
func (g *analyticsGen) next() analyticsOp {
	op := analyticsOp{kind: laKind(g.turn % 3), threshold: 1800 + g.rng.Int63n(401)}
	g.turn++
	return op
}

// laRow is one loaded row: tenant k%2, a group, and a value that is a
// permutation of 0..laRows-1 (no ties, so top-K is unambiguous).
type laRow struct {
	k, v int64
	g    string
}

func laData(seed int64) []laRow {
	rng := stream(seed, 301)
	perm := rng.Perm(laRows)
	rows := make([]laRow, laRows)
	for k := range rows {
		rows[k] = laRow{k: int64(k), v: int64(perm[k]), g: fmt.Sprintf("g%02d", rng.Intn(laGroups))}
	}
	return rows
}

// opDigest hashes a workload's loaded data and the first n operations
// of each of its client streams for one seed.
func opDigest(workload string, seed int64, n int) string {
	h := sha256.New()
	switch workload {
	case "neworder":
		for w := 0; w < 2; w++ {
			g := newNewOrderGen(seed, w)
			for i := 0; i < n; i++ {
				fmt.Fprintln(h, g.next())
			}
		}
	case "tenant-point":
		for k := int64(0); k < tpInsertBase; k++ {
			fmt.Fprintln(h, tpInitial(seed, k))
		}
		for t := 0; t < 2; t++ {
			g := newTenantGen(seed, t)
			for i := 0; i < n; i++ {
				fmt.Fprintln(h, g.next())
			}
		}
	case "labeled-analytics":
		for _, r := range laData(seed) {
			fmt.Fprintln(h, r.k, r.v, r.g)
		}
		g := newAnalyticsGen(seed)
		for i := 0; i < n; i++ {
			fmt.Fprintln(h, g.next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
