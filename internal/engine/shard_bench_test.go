package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"ifdb/internal/txn"
	"ifdb/internal/types"
)

// analyticsShard loads one shard of the labeled-analytics shape: rows
// rows of facts(k, g, v), v a random permutation of 0..rows-1 and g one
// of 16 groups. Tenant 0 writes the even keys under its secrecy tag,
// tenant 1 the odd keys under its own. The returned session reads as
// tenant 0, so Label Confinement hides half the rows from it.
func analyticsShard(tb testing.TB, rows int) *Session {
	tb.Helper()
	e := MustNew(Config{IFC: true})
	if _, err := e.NewSession(e.Admin()).Exec(`CREATE TABLE facts (k BIGINT PRIMARY KEY, g TEXT, v BIGINT)`); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := rng.Perm(rows)
	g := make([]string, rows)
	for k := range g {
		g[k] = fmt.Sprintf("g%02d", rng.Intn(16))
	}
	var reader *Session
	for tenant := 0; tenant < 2; tenant++ {
		prin := e.CreatePrincipal(fmt.Sprintf("tenant%d", tenant))
		tag, err := e.CreateTag(prin, fmt.Sprintf("tenant%d_secret", tenant))
		if err != nil {
			tb.Fatal(err)
		}
		s := e.NewSession(prin)
		if err := s.AddSecrecy(tag); err != nil {
			tb.Fatal(err)
		}
		if err := s.Begin(txn.SnapshotIsolation); err != nil {
			tb.Fatal(err)
		}
		for k := tenant; k < rows; k += 2 {
			if _, err := s.Exec(`INSERT INTO facts VALUES ($1, $2, $3)`,
				types.NewInt(int64(k)), types.NewText(g[k]), types.NewInt(int64(v[k]))); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			tb.Fatal(err)
		}
		if tenant == 0 {
			reader = s
		}
	}
	return reader
}

// drainPrepared executes p through the streaming cursor, the path a
// wire server serves a shard fragment on, and returns the row count.
func drainPrepared(s *Session, p *Prepared) (int, error) {
	c, err := s.ExecPreparedStream(p)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	n := 0
	for !c.Done() {
		rows, _, err := c.NextBatch(256)
		if err != nil {
			return 0, err
		}
		n += len(rows)
	}
	return n, nil
}

// benchShardQuery times query on a 20k-row labeled-analytics shard, of
// which the reader sees 10k rows.
func benchShardQuery(b *testing.B, query string, wantRows int) {
	s := analyticsShard(b, 20_000)
	p, err := s.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := drainPrepared(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if n != wantRows {
			b.Fatalf("%s: %d rows, want %d", query, n, wantRows)
		}
	}
}

// BenchmarkShardTopK is the shard fragment of the labeled-analytics
// top-K query.
func BenchmarkShardTopK(b *testing.B) {
	benchShardQuery(b, `SELECT k, v FROM facts ORDER BY v DESC LIMIT 100`, 100)
}

// BenchmarkShardGroupBy is the shard fragment of the labeled-analytics
// GROUP BY query.
func BenchmarkShardGroupBy(b *testing.B) {
	benchShardQuery(b, `SELECT g, count(*), sum(v) FROM facts GROUP BY g`, 16)
}
