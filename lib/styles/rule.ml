type violation = { rule : string; subject : string; detail : string }

type t = {
  rule_id : string;
  rule_description : string;
  check : Adl.Structure.t -> violation list;
}

let make ~id ~description check = { rule_id = id; rule_description = description; check }

let violation ~rule ~subject detail = { rule; subject; detail }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s: %s" v.rule v.subject v.detail

let check_all rules arch = List.concat_map (fun r -> r.check arch) rules
