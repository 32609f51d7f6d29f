let second = 1.0
let minute = 60.0
let hour = 3600.0
let day = 86_400.0
let year = 365.0 *. day

let minutes x = x *. minute
let hours x = x *. hour
let days x = x *. day
let years x = x *. year

let tb x = x *. 1_000.0
let pb x = x *. 1_000_000.0

let to_hours s = s /. hour
let to_years s = s /. year

let pp_duration ppf s =
  let a = Float.abs s in
  if a >= year then Format.fprintf ppf "%.2fy" (s /. year)
  else if a >= day then Format.fprintf ppf "%.2fd" (s /. day)
  else if a >= hour then Format.fprintf ppf "%.2fh" (s /. hour)
  else if a >= minute then Format.fprintf ppf "%.2fm" (s /. minute)
  else Format.fprintf ppf "%.2fs" s

let pp_bytes ppf g =
  let a = Float.abs g in
  if a >= 1_000_000.0 then Format.fprintf ppf "%.2fPB" (g /. 1_000_000.0)
  else if a >= 1_000.0 then Format.fprintf ppf "%.2fTB" (g /. 1_000.0)
  else if a >= 1.0 then Format.fprintf ppf "%.1fGB" g
  else Format.fprintf ppf "%.1fMB" (g *. 1_000.0)
