// Package cloud is the scale-out layer of an ASIC Cloud: a pool server
// that distributes independent jobs to worker machines over TCP, in the
// style of the third-party pool servers Bitcoin machines pull work from
// ("Machines on the network request work to do from a third-party pool
// server"), and of the paper's general model — "ASIC Clouds target
// workloads consisting of many independent but similar jobs ... Work
// requests from outside the datacenter will be distributed across these
// RCAs in a scale-out fashion."
//
// The protocol is line-delimited JSON. Workers pull: they connect, say
// hello, then alternate getwork requests and result submissions; a
// getwork sent while the connection still holds an unanswered job
// drops the connection, and that job goes back to the queue. A
// getwork that cannot be answered immediately blocks server-side while
// jobs are still outstanding — an expired lease or a dead connection
// can requeue work at any moment — and the pool answers nojob only when
// it is genuinely out of work (drained and closed, or idle with nothing
// in flight), so nojob is the worker's clean exit; any other connection
// loss surfaces as ErrUnexpectedDisconnect. A coordinator builds the
// pool with its jobs (NewPool), calls Close, and ranges over Results,
// which delivers every recorded result losslessly and closes once the
// pool drains. What a worker sends is untrusted: the first result for each
// queued job wins, and a result naming a job the pool never queued is
// acknowledged, logged and ignored.
//
// Note the division of labor with package service: cloud distributes
// the *workload itself* (hashing jobs, sweep chunks) across worker
// machines, while service serves *design-space explorations* (which
// server to build) over HTTP — and, via service.RunCoordinator, fans
// one exploration out over this pool. The two layers correspond to the
// paper's runtime system and its design methodology respectively.
package cloud
