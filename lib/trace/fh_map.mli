(** On-the-fly reconstruction of the file-system hierarchy.

    NFS traces never show the tree directly, but as the paper notes
    (§4.1.1, following Blaze), the active part of the hierarchy can be
    learned from LOOKUP/CREATE/MKDIR calls and their replies: each one
    reveals that handle [child] is entry [name] of directory [dir].
    After a few minutes of trace the probability of meeting a handle
    with unknown parentage is very small; [resolution_rate] measures
    exactly that claim. *)

type t

val create : unit -> t

val observe : t -> Record.t -> unit
(** Learn from one record: lookup/create/mkdir/symlink/mknod replies
    bind names; rename rebinds; remove/rmdir unbinds. *)

val name_of : t -> Nt_nfs.Fh.t -> string option
(** Last known leaf name of the handle. *)

val path_of : t -> Nt_nfs.Fh.t -> string option
(** Full path from the highest known ancestor, e.g.
    ["?/users/u042/.pinerc"] — the ["?"] marks an unlearned root. *)

val parent_of : t -> Nt_nfs.Fh.t -> Nt_nfs.Fh.t option
val known : t -> int
(** Number of handles with a learned binding. *)

val resolution_rate : t -> float
(** Fraction of name-revealing observations whose directory handle was
    already known — the paper's "probability that the parent has been
    seen". 1.0 when nothing was observed. *)
