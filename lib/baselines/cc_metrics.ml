type t = {
  mutable begins : int;
  mutable commits : int;
  mutable aborts : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_registrations : int;
  mutable blocks : int;
  mutable rejects : int;
}

let create () =
  { begins = 0; commits = 0; aborts = 0; reads = 0; writes = 0;
    read_registrations = 0; blocks = 0; rejects = 0 }
