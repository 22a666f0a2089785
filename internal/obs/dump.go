package obs

import (
	"encoding/json"
	"io"
	"time"

	"github.com/parlab/adws/internal/trace"
)

// WorkerState is one worker's live scheduler state as reported by
// /debug/sched and embedded in watchdog dumps. The runtime fills it from
// lock-free reads (stats atomics, the idle bitmask, the current-job
// atomics) plus one short per-entity lock for the queue depth.
type WorkerState struct {
	Worker int  `json:"worker"`
	Parked bool `json:"parked"`
	// Tasks..Wakes are the worker's monotonic scheduling counters; Tasks
	// is the watchdog's progress signal.
	Tasks  int64 `json:"tasks"`
	Steals int64 `json:"steals"`
	Parks  int64 `json:"parks"`
	Wakes  int64 `json:"wakes"`
	// Job is the root-job ordinal of the task the worker is running (or
	// last ran; 0 before any job and while parked — see RunningNS).
	Job int64 `json:"job"`
	// RunningNS is how long the worker has been running the current job
	// continuously, 0 when idle.
	RunningNS int64 `json:"running_ns"`
	// QueueLen is the depth of the worker's primary entity queue.
	QueueLen int `json:"queue_len"`
	// StealLo/StealHi are the worker's current dominant-group steal
	// range [lo, hi) in logical entity units (zero-width when the worker
	// is not dominated or under WS).
	StealLo float64 `json:"steal_lo"`
	StealHi float64 `json:"steal_hi"`
	// LastEventAgeNS is the age of the worker's most recent
	// flight-recorder event, -1 if it has recorded nothing.
	LastEventAgeNS int64 `json:"last_event_age_ns"`
}

// SchedSnapshot is a point-in-time view of every worker's scheduler
// state. It is advisory: the fields are read lock-free while the pool
// runs, so the rows are individually accurate but not mutually atomic.
type SchedSnapshot struct {
	// TakenNS is the snapshot timestamp in Event.Time units (wall-clock
	// nanoseconds).
	TakenNS int64         `json:"taken_ns"`
	Workers []WorkerState `json:"workers"`
}

// Dump is one flight-recorder dump: a consistent cross-worker event
// window plus the scheduler state at dump time.
type Dump struct {
	// Seq numbers dumps per recorder, starting at 1.
	Seq int64 `json:"seq"`
	// Reason is the trigger ("manual", or a watchdog reason).
	Reason string `json:"reason"`
	// Worker is the stalled worker for worker-stall dumps, -1 otherwise.
	Worker int `json:"worker"`
	// TakenAt is the dump's wall-clock time.
	TakenAt time.Time `json:"taken_at"`
	// Workers is the worker count (sizes the Chrome export's tracks).
	Workers int `json:"workers"`
	// Events is the recorded window, merged across workers and
	// time-sorted.
	Events []trace.Event `json:"-"`
	// Sched is the scheduler snapshot taken with the dump (nil when the
	// dumper had no snapshot hook).
	Sched *SchedSnapshot `json:"sched,omitempty"`
}

// eventJSON is the compact JSON form of one event: named type, short
// keys, zero fields omitted.
type eventJSON struct {
	T      string  `json:"t"`
	W      int32   `json:"w"`
	NS     int64   `json:"ns"`
	Task   int64   `json:"task,omitempty"`
	Job    int64   `json:"job,omitempty"`
	Self   int32   `json:"self,omitempty"`
	Victim int32   `json:"victim,omitempty"`
	Depth  int32   `json:"depth,omitempty"`
	Lo     float64 `json:"lo,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
}

// dumpJSON is the on-disk/HTTP form of a Dump.
type dumpJSON struct {
	Seq     int64          `json:"seq"`
	Reason  string         `json:"reason"`
	Worker  int            `json:"worker"`
	TakenAt time.Time      `json:"taken_at"`
	Workers int            `json:"workers"`
	Sched   *SchedSnapshot `json:"sched,omitempty"`
	Events  []eventJSON    `json:"events"`
}

// MarshalJSON renders the dump in its compact JSON form (events with
// named types and short keys).
func (d *Dump) MarshalJSON() ([]byte, error) {
	out := dumpJSON{
		Seq: d.Seq, Reason: d.Reason, Worker: d.Worker,
		TakenAt: d.TakenAt, Workers: d.Workers, Sched: d.Sched,
		Events: make([]eventJSON, len(d.Events)),
	}
	for i, ev := range d.Events {
		out.Events[i] = eventJSON{
			T: ev.Type.String(), W: ev.Worker, NS: ev.Time,
			Task: ev.Task, Job: ev.Job, Self: ev.Self, Victim: ev.Victim,
			Depth: ev.Depth, Lo: ev.RangeLo, Hi: ev.RangeHi,
		}
	}
	return json.Marshal(out)
}

// WriteJSON writes the dump's compact JSON form.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// WriteChrome writes the dump's event window as Chrome trace-event JSON
// (Perfetto / chrome://tracing), one track per worker.
func (d *Dump) WriteChrome(w io.Writer) error {
	return trace.WriteChromeTrace(w, d.Events, d.Workers)
}
