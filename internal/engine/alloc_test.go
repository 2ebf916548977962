package engine

import (
	"testing"

	"ifdb/internal/types"
)

// preparedPointReadAllocs is the allocation budget of one in-process
// prepared point read under IFC: ExecPreparedStream, then NextBatch to
// exhaustion. The cursor embeds the plan runtime and the session binds
// its hooks without closures, so what remains is the cursor and its
// statement transaction, the iterators, and the rows they produce.
// Raise it only with a reason.
const preparedPointReadAllocs = 11

func TestPreparedPointReadAllocs(t *testing.T) {
	e := MustNew(Config{IFC: true})
	s := e.NewSession(e.Admin())
	if _, err := s.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)`); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewInt(2)}
	var got int
	var runErr error
	read := func() {
		c, err := s.ExecPreparedStream(p, params...)
		if err != nil {
			runErr = err
			return
		}
		defer c.Close()
		got = 0
		for !c.Done() {
			rows, _, err := c.NextBatch(256)
			if err != nil {
				runErr = err
				return
			}
			got += len(rows)
		}
	}
	allocs := testing.AllocsPerRun(200, read)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got != 1 {
		t.Fatalf("point read returned %d rows, want 1", got)
	}
	if allocs > preparedPointReadAllocs {
		t.Fatalf("prepared point read: %v allocs, budget %d", allocs, preparedPointReadAllocs)
	}
}
