package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// Body is the code of a simulated task. When the task starts, its Body is
// invoked once with a builder, valid only during the call, and declares,
// in order, the sequence of compute steps and task-group (fork-join)
// steps the task performs. The shape may depend on deterministic
// pseudo-data decided inside the Body, but not on the results of child
// tasks — which matches all the paper's benchmarks, whose control flow is
// fixed once the input is fixed.
type Body func(b *B)

// B builds the step list of one task.
type B struct {
	steps []step
}

// step is one unit of a task's execution: a task group if group is set,
// else a compute step.
type step struct {
	group    *GroupSpec
	work     float64 // pure compute cost, in virtual time units
	accesses []AccessSpec
}

// Compute declares a sequential compute step costing `work` virtual-time
// units of pure computation plus the memory cost of the given accesses.
func (b *B) Compute(work float64, accesses ...AccessSpec) {
	b.steps = append(b.steps, step{work: work, accesses: accesses})
}

// Fork declares a task group: all children are spawned, and the task
// resumes after every child (and its descendants) has completed. A task
// may declare several Fork steps; they execute one after another (§2.2:
// task groups within a task cannot overlap).
func (b *B) Fork(g GroupSpec) {
	gs := g
	b.steps = append(b.steps, step{group: &gs})
}

// GroupSpec describes one task group with the ADWS programming hints of
// the paper's Fig. 2b.
type GroupSpec struct {
	// Work is the total work hint for the group (w_all). Zero means
	// unknown: ADWS then assumes equal work per child (§6.4).
	Work float64
	// Size is the working-set-size hint in bytes, used by multi-level
	// scheduling. Zero means unknown; the group is then never tied below
	// the root.
	Size int64
	// Children are the tasks of the group, in declaration order.
	Children []ChildSpec
}

// ChildSpec is one child task of a group.
type ChildSpec struct {
	// Work is the work hint for this child (w1..wN in Fig. 2b).
	Work float64
	// Size is the child's own working-set size in bytes, used by the
	// space-bounded scheduler (which assigns sizes to tasks rather than
	// task groups, §6.1). Zero derives a share of the group's Size from
	// the work hints.
	Size int64
	// Body is the child's code.
	Body Body
}

// Child is a convenience constructor.
func Child(work float64, body Body) ChildSpec { return ChildSpec{Work: work, Body: body} }

// taskState tracks a task through its life cycle.
type taskState int

const (
	taskReady taskState = iota
	taskRunning
	taskWaiting
	taskDone
)

// Task is a simulated task instance.
type Task struct {
	id   int64
	body Body
	// built reports whether body has been expanded into steps.
	built bool
	steps []step
	// next is the index of the next step to execute.
	next  int
	state taskState

	// workHint is the work hint this task was declared with.
	workHint float64

	// Scheduling state.
	// dom is the scheduling domain the task currently belongs to.
	dom *domain
	// rng is the task's distribution range within dom (ADWS domains only).
	rng sched.Range
	// group is the enclosing cross-worker group node (ADWS domains only).
	group *sched.GroupNode
	// depth is the task depth (index into the depth-separated queues).
	depth int
	// inMigrationQueue records which queue family the task was delivered
	// through, so its non-stolen descendants stay in the same family
	// (§3.2: "descendants of tasks that are migrated to migration queues
	// are pushed into the migration queues unless stolen").
	inMigrationQueue bool
	// crossWorker records whether the task was cross-worker at spawn time,
	// for dominant-group accounting on completion.
	crossWorker bool

	// parent bookkeeping: the group instance this task is a child of.
	parentGroup *activeGroup
	// waitingOn is the group instance whose completion will resume this
	// task (set while state == taskWaiting).
	waitingOn *activeGroup
	// execWorker is the worker currently (or last) executing the task; a
	// suspended task resumes on this worker (its "stack" lives there).
	execWorker int

	// ent is the scheduling entity the task is currently associated with:
	// where it was enqueued, stolen to, or resumed on.
	ent *entity

	// Space-bounded scheduler state (SB mode only).
	// sbSize is the task's working-set size hint in bytes.
	sbSize int64
	// sbCache is the cache the task is anchored under; its descendants may
	// only execute on workers sharing this cache.
	sbCache *topology.Cache
	// sbAnchored reports whether the anchoring decision already ran.
	sbAnchored bool
	// sbRes lists the capacity reservations this task holds, released on
	// completion.
	sbRes []sbReservation
}

// activeGroup is a running task group: the dynamic instance of a Fork step.
type activeGroup struct {
	spec   *GroupSpec
	parent *Task
	// remaining counts unfinished children.
	remaining int
	// node is the cross-worker group tree node (ADWS only, nil otherwise).
	node *sched.GroupNode
	// dom is the domain the children were spawned into.
	dom *domain
	// tiedTo is the cache this group was tied to under multi-level
	// scheduling (nil if untied).
	tiedTo *mlCache
	// flattened is the flattened domain created for this group (nil if
	// no flattening happened).
	flattened *domain
}
