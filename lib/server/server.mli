(** The code-delivery server.

    Sits on top of the compressors the paper built: a content-addressed
    artifact store compresses each published program once per
    representation and serves it many times through a byte-budgeted LRU
    {!Cache}; each fetch scores every registered (artifact, mode)
    candidate the client {!Profile} can use and serves the one with the
    least modelled transfer + preparation + run time (the paper's
    modem/LAN crossover applied online, over each artifact's stored
    size); paging clients stream one {!Wire.Chunked} function chunk per
    request over a resumable {!Session}; and {!Stats.report} snapshots
    cache behaviour, bytes served per representation and
    compression-time histograms.

    [Server] itself is the engine: [create], [publish], [fetch],
    [open_session], [report]. [bin/mccd.ml] serves it over TCP;
    [Sim.Replay] drives it from traces. *)

module Artifact = Artifact
module Cache = Cache
module Stats = Stats
module Profile = Profile
module Store = Store
module Session = Session
module Workload = Workload

include module type of Engine
