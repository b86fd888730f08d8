(* Facade: the code-delivery server.

   [Server] itself is the engine (create / publish / fetch /
   open_session / report); the submodules expose the parts — the
   artifact vocabulary, the LRU cache, client profiles, streaming
   sessions, the stats layer, and the published catalog. *)

module Artifact = Artifact
module Cache = Cache
module Stats = Stats
module Profile = Profile
module Store = Store
module Session = Session
module Workload = Workload
include Engine
