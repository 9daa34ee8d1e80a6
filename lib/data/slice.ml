let[@inline] is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec trim_start s i stop =
  if i < stop && is_space (String.unsafe_get s i) then trim_start s (i + 1) stop else i

let rec trim_stop s i stop =
  if stop > i && is_space (String.unsafe_get s (stop - 1)) then trim_stop s i (stop - 1)
  else stop

let rec digits_end s i stop =
  if i < stop && String.unsafe_get s i >= '0' && String.unsafe_get s i <= '9' then
    digits_end s (i + 1) stop
  else i

let check name s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg name
