(** A TPC-C-shaped workload mapped onto a TST decomposition (DESIGN.md
    §18): [branches] district segments over one shared stock base
    segment ({!Hdd_benchkit.Fixtures.branch_partition}).

    The stock class is root-only eligible (reads only its own base
    segment), so it is the class {!Hdd_hybrid.Hybrid_sched} may
    escalate; district classes cross-read stock lock-free via
    Protocol A, and the read-only stock-level mix rides Protocol C.
    [`High] contention concentrates stock accesses on zipf-hot keys in
    a read-here/write-there transfer shape — the restart storm MVTO
    suffers and commit-waits absorb. *)

type contention = [ `Low | `High ]

val contention_name : contention -> string

val stock_class : branches:int -> int
(** Class id of the escalatable stock class (the base segment). *)

val default_branches : int
val workload :
  ?branches:int ->
  ?stock_keys:int ->
  ?district_keys:int ->
  contention:contention ->
  unit ->
  Hdd_sim.Workload.t
(** Defaults: 4 branches, 256 stock keys, 64 district keys per branch.
    [`Low]: zipf alpha 0.4 over all stock keys, 15% stock updates.
    [`High]: zipf alpha 1.2 over a 16x smaller hot set, 45% stock
    updates.
    @raise Invalid_argument when [branches < 1]. *)
