package difftest

import (
	"testing"

	"ifdb/internal/types"
)

// TestStatementBattery diffs a hand-written corpus covering every
// planner shape the rule pipeline rewrites: predicate pushdown, index
// selection, projection pruning, joins (hash/index/left), views and
// declassifying views, aggregates, sorting, DISTINCT, LIMIT/OFFSET,
// subqueries, IFC pseudo-columns, and error paths. Each SELECT also
// runs through the streaming cursor in small batches.
func TestStatementBattery(t *testing.T) {
	p := newPair(t)

	p.setup("admin", `CREATE TABLE emp (
		id BIGINT PRIMARY KEY, dept BIGINT, name TEXT, salary BIGINT, boss BIGINT)`)
	p.setup("admin", `CREATE TABLE dept (id BIGINT PRIMARY KEY, dname TEXT)`)
	p.setup("admin", `CREATE INDEX emp_dept ON emp (dept)`)
	for i := int64(0); i < 40; i++ {
		p.setup("admin", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(i), types.NewInt(i%5), types.NewText(name(i)),
			types.NewInt(1000+i*37%900), types.NewInt(i/7))
	}
	for i := int64(0); i < 5; i++ {
		p.setup("admin", `INSERT INTO dept VALUES ($1, $2)`,
			types.NewInt(i), types.NewText(name(100+i)))
	}

	// A labeled tenant whose rows interleave with public ones, so every
	// battery statement below exercises Label Confinement at the scan.
	p.addUser("alice", "t_alice")
	p.addUser("outsider")
	for i := int64(200); i < 210; i++ {
		p.setup("alice", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(i), types.NewInt(i%5), types.NewText(name(i)),
			types.NewInt(5000), types.NewInt(0))
	}

	// Declassifying view owned by alice: strips her tag from the rows it
	// exposes, so the outsider sees her salaries through it and only it.
	p.setup("alice", `CREATE VIEW alice_pay AS
		SELECT id, salary FROM emp WHERE id >= 200 WITH DECLASSIFYING (t_alice)`)
	p.setup("admin", `CREATE VIEW wellpaid AS SELECT id, name, salary FROM emp WHERE salary > 1500`)

	// A high-integrity writer whose rows mix secrecy and integrity
	// labels within groups: integrity {vouch,seal}, then {vouch,stamp},
	// then {vouch,stamp} under alice's secrecy tag. Group labels must
	// union the secrecy labels and intersect the integrity labels
	// exactly as the oracle does, whether a row narrows them, widens
	// them, or adds nothing.
	p.addUser("voucher")
	p.endorse("voucher", "t_vouch", "t_seal")
	for i, dept := range []int64{7, 7, 1, 1, 7, 2, 2, 7, 3, 3} {
		switch i {
		case 4:
			p.setup("voucher", `SELECT dropintegrity('t_seal')`)
			p.endorse("voucher", "t_stamp")
		case 7:
			p.setup("voucher", `SELECT addsecrecy('t_alice')`)
		}
		id := int64(300 + i)
		p.setup("voucher", `INSERT INTO emp VALUES ($1, $2, $3, $4, $5)`,
			types.NewInt(id), types.NewInt(dept), types.NewText(name(id)),
			types.NewInt(2000+id%7), types.NewInt(1))
	}

	battery := []struct {
		user string
		sql  string
		args []types.Value
	}{
		// Pushdown + index-selection shapes (whole-WHERE infallible).
		{"admin", `SELECT id, name FROM emp WHERE dept = 3 ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE dept = 2 AND salary > 1200 ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE id = 17`, nil},
		{"admin", `SELECT id FROM emp WHERE id = $1`, args(types.NewInt(23))},
		{"admin", `SELECT id FROM emp WHERE dept = $1 AND id BETWEEN $2 AND $3 ORDER BY id`,
			args(types.NewInt(1), types.NewInt(5), types.NewInt(30))},
		{"admin", `SELECT id FROM emp WHERE dept IN (1, 3) AND name IS NOT NULL ORDER BY id`, nil},
		// Fallible WHERE (arithmetic, LIKE): planner must keep the filter
		// above the scan; results still identical.
		{"admin", `SELECT id FROM emp WHERE salary / (dept + 1) > 300 ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE name LIKE 'n1%' ORDER BY id`, nil},
		// Projection pruning over a wide table.
		{"admin", `SELECT name FROM emp WHERE dept = 0 ORDER BY name`, nil},
		{"admin", `SELECT e.name FROM emp e WHERE e.dept = 4 ORDER BY e.name`, nil},
		// Joins: hash/index equi-join, non-equi, LEFT, self-join, with
		// pushdown-eligible residue.
		{"admin", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id
			WHERE e.salary > 1700 ORDER BY e.name`, nil},
		{"admin", `SELECT e.id, b.id FROM emp e JOIN emp b ON e.boss = b.id
			WHERE e.dept = 2 ORDER BY e.id`, nil},
		{"admin", `SELECT d.dname, e.name FROM dept d LEFT JOIN emp e
			ON d.id = e.dept AND e.salary > 1800 ORDER BY d.dname, e.name`, nil},
		{"admin", `SELECT e.id, d.id FROM emp e JOIN dept d ON e.dept < d.id
			WHERE e.id < 6 ORDER BY e.id, d.id`, nil},
		// Aggregates, GROUP BY, HAVING.
		{"admin", `SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp`, nil},
		{"admin", `SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept`, nil},
		{"admin", `SELECT dept, SUM(salary) FROM emp GROUP BY dept
			HAVING COUNT(*) > 7 ORDER BY dept`, nil},
		// DISTINCT / ORDER BY DESC / LIMIT / OFFSET.
		{"admin", `SELECT DISTINCT dept FROM emp ORDER BY dept DESC`, nil},
		{"admin", `SELECT id FROM emp ORDER BY salary DESC, id LIMIT 5`, nil},
		{"admin", `SELECT id FROM emp ORDER BY id LIMIT 4 OFFSET 10`, nil},
		{"admin", `SELECT id FROM emp WHERE dept = 1 LIMIT 3 OFFSET 1`, nil},
		// Top-N sorts whose keys tie with no tiebreaker: the arrival
		// order of tied rows must survive the bounded sort.
		{"admin", `SELECT id FROM emp ORDER BY dept LIMIT 7`, nil},
		{"admin", `SELECT id FROM emp ORDER BY dept DESC LIMIT 3 OFFSET 4`, nil},
		{"admin", `SELECT id FROM emp ORDER BY dept LIMIT 0`, nil},
		{"admin", `SELECT id, name FROM emp ORDER BY dept LIMIT $1 OFFSET $2`,
			args(types.NewInt(5), types.NewInt(9))},
		{"alice", `SELECT id, _label FROM emp ORDER BY dept DESC LIMIT 12`, nil},
		{"admin", `SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY 2 DESC LIMIT 2`, nil},
		// Subqueries: IN, scalar, EXISTS, correlated.
		{"admin", `SELECT id FROM emp WHERE dept IN (SELECT id FROM dept WHERE dname LIKE 'n10%') ORDER BY id`, nil},
		{"admin", `SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp) ORDER BY id`, nil},
		{"admin", `SELECT dname FROM dept d WHERE EXISTS
			(SELECT 1 FROM emp e WHERE e.dept = d.id AND e.salary > 1800) ORDER BY dname`, nil},
		// Views, including nested predicates over them.
		{"admin", `SELECT id, salary FROM wellpaid WHERE id < 30 ORDER BY id`, nil},
		{"outsider", `SELECT id, salary FROM alice_pay ORDER BY id`, nil},
		{"alice", `SELECT id, salary FROM alice_pay ORDER BY id`, nil},
		// IFC pseudo-columns and label builtins; the outsider's reads are
		// confined, alice's are not.
		{"alice", `SELECT id, _label FROM emp WHERE id >= 200 ORDER BY id`, nil},
		{"outsider", `SELECT COUNT(*) FROM emp`, nil},
		{"alice", `SELECT COUNT(*) FROM emp`, nil},
		// Group labels over mixed secrecy and integrity labels.
		{"alice", `SELECT dept, COUNT(*), SUM(salary), _label, _ilabel FROM emp
			GROUP BY dept ORDER BY dept`, nil},
		{"alice", `SELECT COUNT(*), _label, _ilabel FROM emp WHERE dept = 7`, nil},
		{"outsider", `SELECT dept, COUNT(*), _ilabel FROM emp WHERE dept >= 1
			GROUP BY dept ORDER BY dept`, nil},
		{"voucher", `SELECT dept, COUNT(*), MAX(id), _label, _ilabel FROM emp
			GROUP BY dept ORDER BY dept`, nil},
		{"voucher", `SELECT COUNT(*), _ilabel FROM emp`, nil},
		// An aggregate that fails on an early row under a filter that
		// fails on a later one: the input's error wins, as when the
		// input was drained before the fold.
		{"admin", `SELECT SUM(name) FROM emp WHERE 100 / (id - 20) <> 0`, nil},
		{"admin", `SELECT dept, SUM(name) FROM emp GROUP BY dept`, nil},
		{"alice", `SELECT id FROM emp WHERE label_size(_label) = 0 AND id < 10 ORDER BY id`, nil},
		// Expression zoo in the projection.
		{"admin", `SELECT id, salary * 2 + dept, -id, NOT (dept = 1) FROM emp
			WHERE id < 4 ORDER BY id`, nil},
		{"admin", `SELECT 1, 'x', NULL, TRUE FROM dept WHERE id = 0`, nil},
		// Error paths: unknown column, unknown table, ambiguous column,
		// bad parameter index, type mismatch — exact error text must
		// match across executors.
		{"admin", `SELECT nosuch FROM emp`, nil},
		{"admin", `SELECT id FROM nosuch`, nil},
		{"admin", `SELECT id FROM emp e JOIN emp b ON e.id = b.id WHERE id = 1`, nil},
		{"admin", `SELECT id FROM emp WHERE id = $4`, args(types.NewInt(1))},
		{"admin", `SELECT id FROM emp WHERE id = 'text' + 1`, nil},
	}

	for _, tc := range battery {
		if _, err := p.exec(tc.user, tc.sql, tc.args...); err != nil {
			continue // error already diffed; no stream run for failing statements
		}
		p.execStream(tc.user, tc.sql, 3, tc.args...)
		p.execPrepared(tc.user, tc.sql, tc.args...)
	}

	// An impure projection under ORDER BY ... LIMIT: the top-N sort
	// keeps one row, but nextval still runs once per input row.
	for _, sd := range []*side{p.legacy, p.stream} {
		if err := sd.e.CreateSequence("seq"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.exec("admin", `SELECT COUNT(*) FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	visible := res.Rows[0][0].Int()
	const impure = `SELECT nextval('seq') FROM emp ORDER BY id LIMIT 1`
	runs := []func(){
		func() { p.exec("admin", impure) },
		func() { p.execStream("admin", impure, 3) },
		func() { p.execPrepared("admin", impure) },
	}
	for i, run := range runs {
		run()
		res, err := p.exec("admin", `SELECT nextval('seq')`)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Rows[0][0].Int(), int64(i+1)*(visible+1); got != want {
			t.Fatalf("after run %d of %s: nextval = %d, want %d", i, impure, got, want)
		}
	}

	// Aggregates over an impure input: every WHERE nextval runs before
	// any aggregate argument's, as when the legacy executor drained the
	// input before the fold. A fold that streamed would interleave them.
	for _, q := range []string{
		`SELECT SUM(nextval('seq')), COUNT(*) FROM emp WHERE nextval('seq') > 0`,
		`SELECT dept, MIN(nextval('seq')) FROM emp WHERE nextval('seq') > 0
			GROUP BY dept ORDER BY dept`,
	} {
		p.exec("admin", q)
		p.execStream("admin", q, 3)
		p.execPrepared("admin", q)
	}

	// DDL invalidates cached plans: re-run a cached statement after an
	// index appears and after the table is dropped.
	p.exec("admin", `SELECT id FROM emp WHERE salary = 1370 ORDER BY id`)
	p.setup("admin", `CREATE INDEX emp_sal ON emp (salary)`)
	p.exec("admin", `SELECT id FROM emp WHERE salary = 1370 ORDER BY id`)
	p.setup("admin", `DROP TABLE dept`)
	p.exec("admin", `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id`)

	// Transactions: the cursor's autocommit lifecycle vs an explicit
	// transaction spanning reads and writes.
	p.setup("admin", `BEGIN`)
	p.exec("admin", `SELECT COUNT(*) FROM emp`)
	p.exec("admin", `UPDATE emp SET salary = salary + 1 WHERE dept = 0`)
	p.exec("admin", `SELECT SUM(salary) FROM emp`)
	p.setup("admin", `COMMIT`)
	p.execStream("admin", `SELECT id, salary FROM emp WHERE dept = 0 ORDER BY id`, 2)
}

func name(i int64) string {
	return "n" + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func args(vs ...types.Value) []types.Value { return vs }
