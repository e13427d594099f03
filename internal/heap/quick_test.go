package heap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// Property: for any interleaving of inserts, updates, and deletes by a mix
// of committed and uncommitted transactions, visibility always matches a
// reference model: a version is visible iff its creator committed and its
// deleter (if any) did not.
func TestQuickVisibilityModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, err := Open(storage.NewMemDisk(), 0)
		if err != nil {
			return false
		}
		status := fakeStatus{}
		type version struct {
			tid  TID
			xmin XID
			xmax XID
			data []byte
		}
		var versions []version

		for op := 0; op < 300; op++ {
			xid := XID(2 + rng.Intn(20))
			if rng.Intn(2) == 0 {
				status[xid] = true
			}
			switch {
			case rng.Intn(3) != 0 || len(versions) == 0:
				data := make([]byte, 1+rng.Intn(60))
				rng.Read(data)
				tid, err := r.Insert(xid, data)
				if err != nil {
					return false
				}
				versions = append(versions, version{tid: tid, xmin: xid, data: data})
			default:
				i := rng.Intn(len(versions))
				if versions[i].xmax != 0 {
					continue
				}
				if err := r.Delete(versions[i].tid, xid, status); err != nil {
					return false
				}
				versions[i].xmax = xid
			}
		}
		for _, v := range versions {
			data, err := r.Fetch(v.tid, status)
			wantVisible := status.Committed(v.xmin) && !(v.xmax != 0 && status.Committed(v.xmax))
			if wantVisible {
				if err != nil || !bytes.Equal(data, v.data) {
					return false
				}
			} else if err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: historical reads are monotone — once a version becomes
// invisible at snapshot s, it stays invisible for all s' >= s (given
// committed deleter), and a version visible at s was visible at every
// snapshot in [xmin, xmax).
func TestQuickTimeTravelMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, err := Open(storage.NewMemDisk(), 0)
		if err != nil {
			return false
		}
		status := fakeStatus{}
		// A chain of versions of one logical record.
		var tids []TID
		var xids []XID
		x := XID(2)
		tid, err := r.Insert(x, []byte{0})
		if err != nil {
			return false
		}
		status[x] = true
		tids = append(tids, tid)
		xids = append(xids, x)
		for i := 1; i < 8; i++ {
			x += XID(1 + rng.Intn(3))
			nt, err := r.Update(tids[len(tids)-1], x, []byte{byte(i)}, status)
			if err != nil {
				return false
			}
			status[x] = true
			tids = append(tids, nt)
			xids = append(xids, x)
		}
		// At snapshot xids[i], version i is current: visible; version
		// i-1 is deleted: invisible; version i+1 not yet created.
		for i, tid := range tids {
			if _, err := r.FetchAsOf(tid, status, xids[i]); err != nil {
				return false
			}
			if i > 0 {
				if _, err := r.FetchAsOf(tids[i-1], status, xids[i]); err == nil {
					return false
				}
			}
			if i+1 < len(tids) {
				if _, err := r.FetchAsOf(tids[i+1], status, xids[i]); err == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
