package main

import (
	"strconv"
	"testing"
)

const testPages = 128

// cleanTable is a table holding every account once on its home page,
// with the balances the DEPOSIT counts imply.
func cleanTable(committed []int32) []row {
	rows := make([]row, 0, accounts)
	for a := 0; a < accounts; a++ {
		k := accountKey(a)
		rows = append(rows, row{page: homePage(k, testPages), key: k, val: []byte(strconv.Itoa(int(committed[a])))})
	}
	return rows
}

func deposits() (committed, attempted []int32) {
	committed, attempted = make([]int32, accounts), make([]int32, accounts)
	for a := 0; a < accounts; a++ {
		committed[a] = int32(a % 3)
		attempted[a] = committed[a] + int32(a%2) // some failed at the client
	}
	return committed, attempted
}

func TestAuditCleanTable(t *testing.T) {
	c, a := deposits()
	res := auditRows(cleanTable(c), testPages, c, a)
	if !res.Intact() || res.BadRows() != 0 || res.Lost != 0 || !res.SumOK {
		t.Fatalf("clean table rejected: %+v", res)
	}
}

func TestAuditCatchesPlantedFaults(t *testing.T) {
	c, a := deposits()
	for _, tc := range []struct {
		name  string
		plant func([]row) []row
		check func(auditResult) bool
	}{
		{"missing", func(rs []row) []row { return append(rs[:17], rs[18:]...) },
			func(r auditResult) bool { return r.Missing == 1 && r.BadRows() == 1 }},
		{"duplicated", func(rs []row) []row {
			d := rs[42]
			d.page = (d.page + 1) % testPages
			return append(rs, d)
		}, func(r auditResult) bool { return r.Duplicated == 1 && r.Misplaced == 1 && r.BadRows() == 2 }},
		{"duplicated on home page", func(rs []row) []row { return append(rs, rs[7]) },
			func(r auditResult) bool { return r.Duplicated == 1 && r.BadRows() == 1 }},
		{"misplaced", func(rs []row) []row {
			rs[99].page = (rs[99].page + 5) % testPages
			return rs
		}, func(r auditResult) bool { return r.Misplaced == 1 && r.BadRows() == 1 }},
		{"foreign", func(rs []row) []row { return append(rs, row{page: 0, key: "X1", val: []byte("0")}) },
			func(r auditResult) bool { return r.Foreign == 1 && r.BadRows() == 1 }},
		{"balance above attempted", func(rs []row) []row {
			rs[4].val = []byte(strconv.Itoa(int(a[4]) + 1))
			return rs
		}, func(r auditResult) bool { return r.Excess == 1 && r.BadRows() == 0 }},
		{"unreadable balance", func(rs []row) []row {
			rs[6].val = []byte("six")
			return rs
		}, func(r auditResult) bool { return r.Excess == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := tc.plant(cleanTable(c))
			res := auditRows(rows, testPages, c, a)
			if res.Intact() || !tc.check(res) {
				t.Errorf("planted %s: audit = %+v", tc.name, res)
			}
		})
	}
}

// TestAuditCountsLostDeposits plants balances below the acknowledged
// DEPOSITs: the table stays intact, and each missing DEPOSIT is
// counted so that it can be charged as a failed request.
func TestAuditCountsLostDeposits(t *testing.T) {
	c, a := deposits()
	rows := cleanTable(c)
	rows[5].val = []byte(strconv.Itoa(int(c[5]) - 2)) // account 5 has two committed
	rows[8].val = []byte(strconv.Itoa(int(c[8]) - 1)) // account 8 has two committed
	res := auditRows(rows, testPages, c, a)
	if !res.Intact() || res.Lost != 3 || res.SumOK || res.BadRows() != 0 {
		t.Errorf("lost deposits: audit = %+v, want intact with Lost 3 and SumOK false", res)
	}
	r := &result{rounds: []round{{roundStats: roundStats{
		clientStats: clientStats{attempted: 10, failed: 1},
		audit:       res,
	}}}}
	if attempted, failed := r.counts(); attempted != 10 || failed != 4 || !r.correct() {
		t.Errorf("counts = %d attempted, %d failed, correct %v; want 10, 4, true", attempted, failed, r.correct())
	}
}

func TestAccountKeys(t *testing.T) {
	for _, a := range []int{0, 1, 4095} {
		if got := accountIndex(accountKey(a)); got != a {
			t.Errorf("accountIndex(accountKey(%d)) = %d", a, got)
		}
	}
	for _, k := range []string{"", "A", "A4096", "A04096", "B00001", "A0001x", "A-0001"} {
		if got := accountIndex(k); got != -1 {
			t.Errorf("accountIndex(%q) = %d, want -1", k, got)
		}
	}
}
