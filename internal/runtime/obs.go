package runtime

import (
	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/sched"
)

// SchedSnapshot captures every worker's live scheduler state for the
// /debug/sched endpoint and watchdog dumps. It runs concurrently with
// the pool: each row is assembled from lock-free reads (stats atomics,
// the idle bitmask, the curJob/curStart pair) plus one short per-entity
// lock for the queue depth, so rows are individually accurate but the
// snapshot is not a globally atomic cut.
func (p *Pool) SchedSnapshot() obs.SchedSnapshot {
	t := now()
	snap := obs.SchedSnapshot{
		TakenNS: t,
		Workers: make([]obs.WorkerState, len(p.workers)),
	}
	for i, w := range p.workers {
		word, bit := p.idleWord(i)
		ws := obs.WorkerState{
			Worker:         i,
			Parked:         word.Load()&bit != 0,
			Tasks:          w.stats.tasks.Load(),
			Steals:         w.stats.steals.Load(),
			Parks:          w.stats.parks.Load(),
			Wakes:          w.stats.wakes.Load(),
			Job:            w.curJob.Load(),
			LastEventAgeNS: -1,
		}
		if ws.Job != 0 && !ws.Parked {
			ws.RunningNS = t - w.curStart.Load()
		}
		if ent := p.snapshotEntity(w); ent != nil {
			ws.QueueLen = ent.queueLen()
			if ent.dom.adws {
				self := ent.dom.LogicalOf(ent.idx)
				if sr, ok := sched.CurrentStealRange(ent.lastGroup.Load(), self); ok {
					ws.StealLo, ws.StealHi = sr.HalfOpen()
				}
			}
		}
		if p.flight != nil {
			if last := p.flight.LastNS(i); last != 0 {
				ws.LastEventAgeNS = t - last
			}
		}
		snap.Workers[i] = ws
	}
	return snap
}

// snapshotEntity picks the entity whose queue depth and steal range
// describe worker w right now: the worker's own root-domain slot for
// flat policies, its highest-priority candidate (newest flattened
// domain, else the cache it leads) under multi-level scheduling, or nil
// when an ML worker currently acts for no entity. candidates takes the
// same locks the worker itself takes, so calling it from the snapshot
// goroutine is safe.
func (p *Pool) snapshotEntity(w *worker) *entity {
	if !p.policy.isML() {
		return p.rootDom.entities[w.id]
	}
	if cands := w.candidates(); len(cands) > 0 {
		return cands[0]
	}
	return nil
}
