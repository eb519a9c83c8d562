package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"
)

// row is one record as a page scan returned it.
type row struct {
	page int
	key  string
	val  []byte
}

// auditResult is the exactly-once audit of the table after a round.
type auditResult struct {
	Missing    int // preloaded accounts found on no page
	Duplicated int // extra copies of an account beyond the first
	Misplaced  int // copies found off their home page
	Foreign    int // records that are no account of the benchmark
	// Lost counts acknowledged DEPOSITs the table does not show: the
	// sum over accounts of how far each balance lies below the
	// DEPOSITs that returned success to that account.
	Lost int
	// Excess counts accounts whose balance is unreadable or above the
	// DEPOSITs sent to that account: an update applied twice or from
	// nowhere.
	Excess int
	Sum    int64 // sum of balances over the first copy of each account
	// SumOK reports committed <= Sum <= attempted over all accounts.
	SumOK bool
}

// BadRows counts the rows the audit rejects as lost, duplicated, off
// their home page or foreign.
func (a auditResult) BadRows() int { return a.Missing + a.Duplicated + a.Misplaced + a.Foreign }

// Intact reports a table that holds every account exactly once on its
// home page with no balance above what was sent. Lost DEPOSITs leave
// it intact: each is charged to the request it belongs to as a
// failure (see result.counts), not to the table as a whole.
func (a auditResult) Intact() bool { return a.BadRows() == 0 && a.Excess == 0 }

// homePage is the page an account's key hashes to in a table of n
// pages: FNV-1a of the key, modulo n, the database's placement rule.
func homePage(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// auditRows checks scan output against the preload and the DEPOSITs
// the clients made: committed[a] DEPOSITs to account a returned
// success and attempted[a] were sent (a DEPOSIT that failed at the
// client may still have committed, e.g. after its deadline).
func auditRows(rows []row, pages int, committed, attempted []int32) auditResult {
	var res auditResult
	seen := make([]int, accounts)
	var lo, hi int64
	for a := 0; a < accounts; a++ {
		lo += int64(committed[a])
		hi += int64(attempted[a])
	}
	for _, r := range rows {
		a := accountIndex(r.key)
		if a < 0 {
			res.Foreign++
			continue
		}
		seen[a]++
		if r.page != homePage(r.key, pages) {
			res.Misplaced++
		}
		if seen[a] > 1 {
			res.Duplicated++
			continue
		}
		v, err := strconv.ParseInt(string(r.val), 10, 64)
		switch {
		case err != nil || v > int64(attempted[a]):
			res.Excess++
		case v < int64(committed[a]):
			res.Lost += int(int64(committed[a]) - v)
		}
		if err == nil {
			res.Sum += v
		}
	}
	for a := 0; a < accounts; a++ {
		if seen[a] == 0 {
			res.Missing++
		}
	}
	res.SumOK = lo <= res.Sum && res.Sum <= hi
	return res
}

// scanTable reads every page of the table through one member's
// engine, page by page, so each record is attributed to the page it
// was found on.
func (r *rig) scanTable(ctx context.Context) ([]row, error) {
	sys, err := r.plex.System("SYS1")
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	var rows []row
	for p := 0; p < r.w.pages; p++ {
		var page []row
		var err error
		// A page latch can lose a wait like any lock; retry the page.
		for attempt := 0; attempt < 3; attempt++ {
			page = page[:0]
			pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err = eng.ScanPages(pctx, "AUDIT", table, p, p+1, func(k string, v []byte) bool {
				page = append(page, row{page: p, key: k, val: append([]byte(nil), v...)})
				return true
			})
			cancel()
			if err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("audit scan of page %d: %w", p, err)
		}
		rows = append(rows, page...)
	}
	return rows, nil
}

// quiesce waits until no transaction is in flight anywhere: work that
// WLM shipped to another system keeps running after its client gave up
// at the deadline, and the audit must see its outcome. It waits for the
// engines' begin/commit/abort counts to hold still, at most limit.
func (r *rig) quiesce(limit time.Duration) bool {
	const stableFor = 4
	end := time.Now().Add(limit)
	var last int64 = -1
	stable := 0
	for time.Now().Before(end) {
		var cur int64
		for _, st := range r.plex.Stats() {
			cur += st.DB.Begins + st.DB.Commits + st.DB.Aborts
		}
		if cur == last {
			stable++
			if stable >= stableFor {
				return true
			}
		} else {
			stable = 0
		}
		last = cur
		time.Sleep(50 * time.Millisecond)
	}
	return false
}
