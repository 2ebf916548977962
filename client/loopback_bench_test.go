package client_test

import (
	"testing"

	"ifdb"
	"ifdb/client"
)

// BenchmarkLoopbackPreparedPointRead times one prepared single-row
// SELECT by primary key through a real wire.Server on a loopback
// socket: client encode, EXECUTE frame, server admit and execute, the
// ROWS reply, client decode. allocs/op counts both ends, which share
// the process.
//
//	go test -run '^$' -bench LoopbackPreparedPointRead -benchmem ./client/
func BenchmarkLoopbackPreparedPointRead(b *testing.B) {
	db, addr := startServer(b, "")
	admin := db.AdminSession()
	if _, err := admin.Exec(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)`); err != nil {
		b.Fatal(err)
	}
	const keys = 1000
	for k := 0; k < keys; k++ {
		if _, err := admin.Exec(`INSERT INTO kv VALUES ($1, $2)`, ifdb.Int(int64(k)), ifdb.Int(int64(2*k))); err != nil {
			b.Fatal(err)
		}
	}
	conn, err := client.Dial(addr, "", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	stmt, err := conn.Prepare(`SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % keys)
		res, err := stmt.Exec(ifdb.Int(k))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2*k {
			b.Fatalf("key %d: got %v", k, res.Rows)
		}
	}
}
