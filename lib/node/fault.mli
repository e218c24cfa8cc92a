(** Declarative fault schedules for {!Scenario} runs: crash/restart a
    validator, split the network into groups that later heal, open a
    transient message-loss window, or turn a node into a Byzantine
    re-flooder.  The schedule is plain data; {!Scenario.run} interprets it
    by scheduling engine events, so two runs with the same seed and schedule
    are byte-identical. *)

type event =
  | Crash of { node : int; at : float }  (** take [node] down at time [at] *)
  | Restart of { node : int; at : float }
      (** bring a crashed [node] back up; it catches up from the scenario
          archive and rejoins consensus *)
  | Partition of { at : float; groups : (int * int) list }
      (** split the network: [(node, group)] for every node; messages
          between different groups are dropped.  A group left further
          behind than straggler help reaches catches up from the scenario
          archive after the heal *)
  | Heal of { at : float }  (** drop all partition groups *)
  | Loss of { rate : float; from_ : float; until_ : float }
      (** independent per-message drop probability [rate] during the window *)
  | Reflood of { node : int; at : float; copies : int }
      (** [node] re-broadcasts its latest envelopes [copies] times,
          bypassing its own dedup (a chatty-but-not-equivocating Byzantine
          peer) *)

type schedule = event list

val validate : n_nodes:int -> schedule -> (unit, string) result
(** Reject malformed schedules: node indices out of range, negative times,
    loss rates outside [0,1], empty loss windows, partition assignments that
    do not cover every node exactly once, non-positive reflood copies, and
    crash/restart sequences that do not alternate per node in time order
    (restart without a prior crash, double crash). *)
